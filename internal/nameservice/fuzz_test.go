package nameservice

import (
	"encoding/binary"
	"slices"
	"testing"

	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

// mkReq assembles a protocol request for the fuzz corpus, mirroring the
// client's buildReq layout.
func mkReq(op OpKind, replyTo, field uint32, name string, tail []byte) []byte {
	req := make([]byte, 10+len(name)+len(tail))
	req[0] = byte(op)
	binary.BigEndian.PutUint32(req[1:5], replyTo)
	binary.BigEndian.PutUint32(req[5:9], field)
	req[9] = byte(len(name))
	copy(req[10:], name)
	copy(req[10+len(name):], tail)
	return req
}

// serverProcessSeeds is FuzzServerProcess's corpus; the table-completeness
// test checks it reaches every row of opTable.
func serverProcessSeeds() [][]byte {
	replyAddr := func() uint32 {
		a, err := wire.MakeAddr(1, 3, 1)
		if err != nil {
			panic(err)
		}
		return uint32(a)
	}()
	subAddr, err := wire.MakeAddr(2, 5, 1)
	if err != nil {
		panic(err)
	}
	var seeds [][]byte
	add := func(req []byte) { seeds = append(seeds, req) }

	// One seed per op, plus malformed shapes.
	add(mkReq(opRegister, replyAddr, uint32(subAddr), "svc", nil))
	add(mkReq(opLookup, replyAddr, 7, "svc", nil))
	add(mkReq(opUnregister, replyAddr, 0, "svc", nil))
	add(mkReq(OpSubscribe, replyAddr, uint32(subAddr), "topic", []byte{2}))
	add(mkReq(OpUnsubscribe, replyAddr, uint32(subAddr), "topic", nil))
	add(mkReq(OpSnapshot, replyAddr, 9, "topic", []byte{0, 0}))
	add(mkReq(OpSnapshot, replyAddr, 9, "topic", []byte{0, 200}))     // legacy 2-byte offset past end
	add(mkReq(OpSnapshot, replyAddr, 9, "topic", []byte{0, 0, 0, 4})) // 4-byte offset
	add(mkReq(OpSnapshot, replyAddr, 9, "topic", []byte{1, 0, 0, 0})) // 4-byte offset past end
	add(mkReq(opRegistryInfo, replyAddr, 11, "", nil))
	add(mkReq(opTopicList, replyAddr, 13, "", []byte{0, 0}))
	add(mkReq(opTopicList, replyAddr, 13, "", []byte{0, 0, 0, 1}))       // 4-byte offset
	add(mkReq(opTopicList, replyAddr, 13, "", []byte{0xFF, 0, 0, 0xFF})) // offset far past end
	add(mkReq(99, replyAddr, 0, "x", nil))                               // unknown op
	add(mkReq(opLookup, 0, 0, "x", nil))                                 // invalid reply address
	add([]byte{byte(opLookup), 0, 0})                                    // truncated header
	add(mkReq(OpSubscribe, replyAddr, 0, "t", []byte{1}))                // invalid subscriber addr
	// Sharded-registry extension: shard-map pages (in-range, past-end),
	// reserved-topic mutations with and without the privilege marker,
	// and a cursor ack on a reserved stream (always refused).
	add(mkReq(opShardMap, replyAddr, 17, "", []byte{0, 0, 0, 0}))
	add(mkReq(opShardMap, replyAddr, 17, "", []byte{0, 0, 0, 2}))
	add(mkReq(opShardMap, replyAddr, 17, "", []byte{0xFF, 0, 0, 0}))
	add(mkReq(OpSubscribe, replyAddr, uint32(subAddr), "!registry/1", []byte{0, reservedMagic}))
	add(mkReq(OpSubscribe, replyAddr, uint32(subAddr), "!registry", []byte{0}))
	add(mkReq(OpUnsubscribe, replyAddr, uint32(subAddr), "!registry/1", []byte{reservedMagic}))
	add(mkReq(OpUnsubscribe, replyAddr, uint32(subAddr), "!registry", nil))
	add(mkReq(OpAckCursor, replyAddr, 23, "!registry", append(
		[]byte{0, 0, 0, 0, 0, 0, 0, 9, 3}, "sub"...)))
	add(mkReq(OpSubscribe, replyAddr, uint32(subAddr), "seeded-topic", []byte{2}))
	// Edge plane: pattern subscriptions (accepted at every shard) and
	// shard-routed presence leases with the [gwlen][gw] tail.
	add(mkReq(OpSubscribePattern, replyAddr, uint32(subAddr), "metrics.*", nil))
	add(mkReq(OpSubscribePattern, replyAddr, uint32(subAddr), "metrics.**", nil))
	add(mkReq(OpSubscribePattern, replyAddr, uint32(subAddr), "bad..pattern", nil))
	add(mkReq(OpUnsubscribePattern, replyAddr, uint32(subAddr), "metrics.*", nil))
	add(mkReq(OpUpsertPresence, replyAddr, uint32(subAddr), "gw-a/c1", append([]byte{4}, "gw-a"...)))
	add(mkReq(OpUpsertPresence, replyAddr, uint32(subAddr), "gw-a/c1", []byte{9})) // gw name overruns tail
	add(mkReq(OpUpsertPresence, replyAddr, uint32(subAddr), "!registry", append([]byte{2}, "gw"...)))
	add(mkReq(OpDropPresence, replyAddr, 31, "gw-a/c1", nil))
	add(func() []byte { // name length runs past the request
		r := mkReq(opLookup, replyAddr, 0, "abc", nil)
		r[9] = 200
		return r
	}())

	// The trailing request id of the register-shaped ops: one seed per
	// tail length around the lengths that carry one (subscribe's class
	// and marker make it 4..6, unsubscribe's marker 4..5, presence-up's
	// gateway name 1+n+4, exactly 4 where the row declares no tail), so
	// class and marker are never read out of an id or an id out of them.
	id := []byte{0x52, 0x52, 0x52, 0x52} // an id made of marker bytes
	for n := 0; n <= 8; n++ {
		tail := append([]byte{2, reservedMagic, 0xEE, 0xEE}[:min(n, 4)], id[:max(0, min(n-4, 4))]...)
		for _, op := range []OpKind{opRegister, opUnregister, OpSubscribe, OpUnsubscribe, OpSubscribePattern, OpUnsubscribePattern} {
			add(mkReq(op, replyAddr, uint32(subAddr), "!registry", tail))
		}
	}
	for _, tail := range [][]byte{id, append([]byte{2}, id...), append([]byte{2, reservedMagic}, id...), append([]byte{2, 0}, id...)} {
		add(mkReq(OpSubscribe, replyAddr, uint32(subAddr), "topic", tail))
		add(mkReq(OpUnsubscribe, replyAddr, uint32(subAddr), "topic", tail))
	}
	for _, gw := range []string{"gw-a", "g", ""} {
		tail := append(append([]byte{byte(len(gw))}, gw...), id...)
		add(mkReq(OpUpsertPresence, replyAddr, uint32(subAddr), "gw-a/c1", tail))
		add(mkReq(OpUpsertPresence, replyAddr, uint32(subAddr), "gw-a/c1", tail[:len(tail)-1]))
	}
	return seeds
}

// FuzzServerProcess drives the remote-protocol request parser with
// arbitrary requests against a server whose registry holds seeded
// state. Invariants checked on every request:
//
//   - process never panics, whatever the bytes;
//   - a nil response happens only when the request is too short to
//     carry a reply address or the address is invalid (nobody to
//     refuse to);
//   - every response fits the response minimum (9 bytes) and the
//     payload capacity it was built for — a page that overflows the
//     domain's message size would be unsendable;
//   - the 4-byte tag/payload field echoes through all tagged ops, so
//     pipelined clients can never mis-match a response;
//   - a register-shaped op answers in 9 bytes, or in 13 with the last
//     four bytes of the request echoed behind the header (the trailing
//     request id), and in 13 whenever the tail is a declared tail plus
//     four bytes.
func FuzzServerProcess(f *testing.F) {
	const maxPayload = 120
	for _, seed := range serverProcessSeeds() {
		f.Add(seed)
	}

	shardMap := shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}})

	f.Fuzz(func(t *testing.T, req []byte) {
		// Fresh servers per input — one unsharded, one shard-aware —
		// with state seeded so snapshot/list pages have content to
		// overflow if the paging math is wrong, and a 3-shard map so
		// routing and the NotOwner redirect run on every topic op.
		for _, sharded := range []bool{false, true} {
			s := &Server{dir: New(), topics: NewTopicRegistry()}
			if sharded {
				s.SetShards(0, func() *shardmap.Map { return shardMap })
			}
			for i := uint16(1); i <= 40; i++ {
				a, err := wire.MakeAddr(3, i%64, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.topics.Subscribe("seeded-topic", a); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.topics.Declare("another-topic", 2); err != nil {
				t.Fatal(err)
			}
			// A catch-all pattern: single-segment topic snapshots now
			// carry a pattern block on their final page, so the paging
			// math is exercised with the block in play.
			if patAddr, err := wire.MakeAddr(3, 63, 1); err == nil {
				if err := s.topics.SubscribePattern("*", patAddr); err != nil {
					t.Fatal(err)
				}
			}

			replyTo, resp := s.process(req, maxPayload)
			if resp == nil {
				if len(req) >= 10 && wire.Addr(binary.BigEndian.Uint32(req[1:5])).Valid() {
					t.Fatalf("no response to a request with a valid reply address: %x", req)
				}
				continue
			}
			if !replyTo.Valid() {
				t.Fatalf("response addressed to invalid %v", replyTo)
			}
			if len(resp) < 9 {
				t.Fatalf("response %d bytes, below protocol minimum", len(resp))
			}
			if len(resp) > maxPayload {
				t.Fatalf("response %d bytes exceeds payload capacity %d (op %d)", len(resp), maxPayload, req[0])
			}
			if len(req) >= 10 && int(req[9])+10 <= len(req) {
				// Parsed far enough to dispatch: the tag field must echo.
				if got, want := resp[5:9], req[5:9]; OpKind(req[0]) != opLookup && string(got) != string(want) {
					t.Fatalf("op %d dropped the tag echo: got %x want %x", req[0], got, want)
				}
				if row := rowOf(OpKind(req[0])); row != nil && !row.tagged {
					tail := req[10+int(req[9]):]
					_, id := row.splitID(tail)
					if len(resp) != 9+len(id) || string(resp[9:]) != string(id) {
						t.Fatalf("op %d, tail %x: response %x, want 9 bytes and the id %x", req[0], tail, resp, id)
					}
					if lens := map[OpKind][]int{OpSubscribe: {4, 5, 6}, OpUnsubscribe: {4, 5}}[OpKind(req[0])]; lens != nil {
						if want := slices.Contains(lens, len(tail)); want != (id != nil) {
							t.Fatalf("op %d, tail %x: id read = %v, want %v", req[0], tail, id != nil, want)
						}
					}
				}
			}
		}
	})
}
