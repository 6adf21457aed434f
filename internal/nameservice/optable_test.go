package nameservice

import (
	"encoding/binary"
	"errors"
	"testing"
)

// allOps is every op constant the package declares.
var allOps = []OpKind{opRegister, opLookup, opUnregister, OpSubscribe, OpUnsubscribe, OpSnapshot, opRegistryInfo,
	opTopicList, OpAckCursor, opShardMap, OpSubscribePattern, OpUnsubscribePattern, OpUpsertPresence, OpDropPresence}

// TestOpTableComplete: every op constant has exactly one row and every
// row an op constant, codes and names are unique, each row can answer,
// the fuzz corpus reaches every row, and the rows keep the two shape
// assumptions the tail helpers make.
func TestOpTableComplete(t *testing.T) {
	seeded := map[OpKind]bool{}
	for _, seed := range serverProcessSeeds() {
		if len(seed) > 0 {
			seeded[OpKind(seed[0])] = true
		}
	}
	codes, names := map[OpKind]bool{}, map[string]bool{}
	for _, k := range allOps {
		row := rowOf(k)
		switch {
		case row == nil:
			t.Fatalf("op %d has no row", k)
		case codes[k] || names[row.name]:
			t.Errorf("op %d (%s): code or name used twice", k, row.name)
		case (row.serve == nil) == (row.apply == nil):
			t.Errorf("op %d (%s): needs exactly one of serve and apply", k, row.name)
		case !seeded[k]:
			t.Errorf("op %d (%s): no FuzzServerProcess seed", k, row.name)
		}
		codes[k], names[row.name] = true, true
		for i, f := range row.tail {
			if !row.tagged && f != tClass && f != tMarker && f != tSub {
				t.Errorf("op %d (%s): splitID cannot size tail field %d of a register-shaped op", k, row.name, f)
			}
			if f == tMarker && i > 0 && row.tail[i-1] != tClass {
				t.Errorf("op %d (%s): marked assumes only single-byte fields before the marker", k, row.name)
			}
		}
		if row.everyShard && row.routed {
			t.Errorf("op %d (%s): sent to every shard and routed to one", k, row.name)
		}
	}
	for k := 0; k < 256; k++ {
		if row := rowOf(OpKind(k)); row != nil && !codes[OpKind(k)] {
			t.Errorf("row %d (%s) has no op constant", k, row.name)
		}
	}
}

// TestRequestIDTailRules: a register-shaped request carries its id
// exactly when its tail is a declared tail plus four bytes — then the
// id comes back at [9:13] and no byte of it is read as class or marker
// — and any other tail is answered in the 9 bytes it always was.
func TestRequestIDTailRules(t *testing.T) {
	id := []byte{reservedMagic, reservedMagic, reservedMagic, reservedMagic}
	cat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	for _, c := range []struct {
		what   string
		op     OpKind
		name   string
		tail   []byte
		status byte
		echoed bool
		class  uint8
	}{
		{"subscribe, no tail", OpSubscribe, "t", nil, statusOK, false, 0},
		{"subscribe, class", OpSubscribe, "t", []byte{2}, statusOK, false, 2},
		{"subscribe, id only", OpSubscribe, "t", id, statusOK, true, 0},
		{"subscribe, class + id", OpSubscribe, "t", cat([]byte{2}, id), statusOK, true, 2},
		{"subscribe, class + marker + id", OpSubscribe, "t", cat([]byte{2, reservedMagic}, id), statusOK, true, 2},
		{"subscribe, 3 bytes is no id", OpSubscribe, "t", []byte{2, 0, 9}, statusOK, false, 2},
		{"subscribe, 7 bytes is no id", OpSubscribe, "t", cat([]byte{2, 0, 9}, id), statusOK, false, 2},
		{"reserved subscribe: an id of marker bytes is not the marker", OpSubscribe, "!r", cat([]byte{2}, id), statusReserved, true, 0},
		{"reserved subscribe: marker + id", OpSubscribe, "!r", cat([]byte{2, reservedMagic}, id), statusOK, true, 2},
		{"reserved subscribe: legacy marker, no id", OpSubscribe, "!r", []byte{2, reservedMagic}, statusOK, false, 2},
		{"reserved unsubscribe: id only", OpUnsubscribe, "!r", id, statusReserved, true, 0},
		{"reserved unsubscribe: marker + id", OpUnsubscribe, "!r", cat([]byte{reservedMagic}, id), statusOK, true, 0},
		{"unsubscribe, 6 bytes is no id", OpUnsubscribe, "t", cat([]byte{0, 0}, id), statusOK, false, 0},
		{"register + id", opRegister, "svc", id, statusOK, true, 0},
		{"register, 5 bytes is no id", opRegister, "svc2", cat([]byte{0}, id), statusOK, false, 0},
		{"unregister + id", opUnregister, "svc", id, statusOK, true, 0},
		{"pattern sub + id", OpSubscribePattern, "m.*", id, statusOK, true, 0},
		{"presence up + id", OpUpsertPresence, "gw/c", cat([]byte{2, 'g', 'w'}, id), statusOK, true, 0},
		{"presence up, id one byte short", OpUpsertPresence, "gw/c", cat([]byte{2, 'g', 'w'}, id[:3]), statusOK, false, 0},
		{"presence up, empty gateway + id", OpUpsertPresence, "gw/c", cat([]byte{0}, id), statusBad, true, 0},
	} {
		s := &Server{dir: New(), topics: NewTopicRegistry()}
		_, resp := s.process(mkReq(c.op, uint32(goldReply), uint32(goldSub), c.name, c.tail), goldenPayload)
		want := 9
		if c.echoed {
			want = 13
		}
		if len(resp) != want || resp[0] != c.status || (c.echoed && string(resp[9:]) != string(id)) {
			t.Errorf("%s: response %x, want status %d in %d bytes", c.what, resp, c.status, want)
		}
		if snap, ok := s.topics.Snapshot(c.name); c.op == OpSubscribe && c.status == statusOK && (!ok || snap.Class != c.class) {
			t.Errorf("%s: topic class %d, want %d", c.what, snap.Class, c.class)
		}
	}
}

// FuzzClientPages drives the three page decoders with arbitrary
// responses at arbitrary offsets: they never panic, they fail only with
// ErrBadReply, a page that says it carries more entries than it holds is
// ErrBadReply, and a decoded page moves the offset on by exactly the
// entries it carried — so only an empty page can stall a fetch, which is
// what Client.pages turns into an error (TestPagesStallIsAnError).
func FuzzClientPages(f *testing.F) {
	s := goldenServer(f, true, true)
	for _, req := range [][]byte{
		greq(6, 1, "big", 0, 0, 0, 0), greq(6, 2, "big", 0, 0, 0, 54), greq(6, 3, "alarms"), greq(6, 4, "nope"),
		greq(8, 5, "", 0, 0, 0, 0), greq(8, 6, "", 0, 0, 0, 9), greq(10, 7, "", 0, 0, 0, 0), greq(10, 8, "", 0, 0, 0, 2),
		greq(7, 9, ""), greq(2, 10, "x"),
	} {
		_, resp := s.process(req, goldenPayload)
		f.Add(resp, uint16(0))
		f.Add(resp, uint16(27))
		f.Add(resp[:len(resp)-1], uint16(0))
		f.Add(append(append([]byte(nil), resp[:9]...), 0xFF, 0xFF, 0xFF), uint16(3))
	}
	f.Fuzz(func(t *testing.T, resp []byte, off uint16) {
		if len(resp) < 9 {
			return // Client.do hands no such reply to a decoder
		}
		offset := int(off)
		var (
			snap  TopicSnapshot
			names []string
			fetch shardMapFetch
		)
		snap.Gen = binary.BigEndian.Uint32(resp[1:5]) // as if the earlier pages matched this one
		fetch.epoch = binary.BigEndian.Uint64(append(append([]byte(nil), resp[9:]...), make([]byte, 8)...))
		for name, d := range map[string]struct {
			add     func([]byte, int) (int, bool, error)
			claimed func() (entries, have int) // what the page says it carries, and the most it can
			got     func() int
		}{
			"snapshot": {func(r []byte, o int) (int, bool, error) { return snapPage(&snap, 27, r, o) },
				func() (int, int) { return int(resp[10]), (len(resp) - snapHeaderBytes) / 4 },
				func() int { return len(snap.Subs) }},
			"topic list": {func(r []byte, o int) (int, bool, error) { return listPage(&names, r, o) },
				func() (int, int) { return int(resp[9]), len(resp) - 10 },
				func() int { return len(names) }},
			"shard map": {fetch.page,
				func() (int, int) { return int(resp[19]), (len(resp) - 20) / shardEntryBytes },
				func() int { return len(fetch.entries) }},
		} {
			next, _, err := d.add(resp, offset)
			if err != nil {
				if !errors.Is(err, ErrBadReply) {
					t.Fatalf("%s: error %v is not ErrBadReply", name, err)
				}
				continue
			}
			entries, have := d.claimed()
			if entries > have {
				t.Fatalf("%s: page %x claims %d entries, holds at most %d, and decoded", name, resp, entries, have)
			}
			if d.got() != entries || next != offset+entries {
				t.Fatalf("%s: page of %d entries at offset %d decoded %d, next %d", name, entries, offset, d.got(), next)
			}
		}
	})
}

// TestPagesStallIsAnError: the one paging loop refuses a page that
// neither ends the fetch nor advances it, whatever the decoder — the
// property TestTopicListStalledPageErrors checks end to end.
func TestPagesStallIsAnError(t *testing.T) {
	_, cli, _, _ := newRemoteRig(t)
	calls := 0
	err := cli.pages(opTopicList, "", callTimeout, func([]byte, int) (int, bool, error) {
		calls++
		return 0, false, nil
	})
	if !errors.Is(err, ErrBadReply) || calls != 1 {
		t.Fatalf("err = %v after %d pages, want ErrBadReply after 1", err, calls)
	}
}
