package registrystore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// FuzzDecodeRecord drives the journal/replication record parser with
// arbitrary bytes. Invariants:
//
//   - DecodeRecord never panics;
//   - every failure is ErrShort (structurally incomplete — the torn-
//     tail class a log reader truncates at) or ErrCorrupt (everything
//     else), never a third kind;
//   - it accepts only today's layout: a frame of another version, with
//     a non-empty extension area, or of a retired type never decodes;
//   - anything that decodes re-encodes to the identical bytes — the
//     format is canonical, so log bytes, replicated bytes, and
//     re-journaled bytes can never disagree;
//   - consumed byte counts stay within the input, so a stream reader
//     can never over-advance.
func FuzzDecodeRecord(f *testing.F) {
	a, err := wire.MakeAddr(3, 7, 1)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(r Record) []byte {
		b, err := AppendRecord(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(Record{Type: RecDeclare, Seq: 1, Topic: "alpha", Class: 2}))
	f.Add(seed(Record{Type: RecSubscribe, Seq: 2, Topic: "alpha", Addr: a}))
	f.Add(framed(1, typRenew, 3, nil, addrBody(a, "alpha"))) // retired: rejected
	f.Add(seed(Record{Type: RecUnsubscribe, Seq: 4, Topic: "alpha", Addr: a}))
	f.Add(framed(1, typAdvance, 5, nil, nil)) // retired: rejected
	f.Add(seed(Record{Type: RecFence, Seq: 6, Gen: 42}))
	f.Add(seed(Record{Type: RecHeartbeat, Seq: 7, Gen: 43}))
	// Older frame layouts: version 0, and an extension area.
	f.Add(framed(0, uint8(RecDeclare), 10, nil, declareBody(2, "alpha")))
	f.Add(framed(1, uint8(RecSubscribe), 11, []byte("trace"), addrBody(a, "alpha")))
	f.Add(framed(0, typCursorAck, 12, nil, ackBody(999, "node3/analytics", "alpha")))
	f.Add(framed(1, typCursorAck, 13, nil, ackBody(1, "s", "t")))
	// Two records back to back (stream framing).
	f.Add(append(seed(Record{Type: RecHeartbeat, Seq: 1, Gen: 1}),
		seed(Record{Type: RecFence, Seq: 2, Gen: 1})...))
	// Torn tail.
	f.Add(seed(Record{Type: RecSubscribe, Seq: 8, Topic: "torn", Addr: a})[:20])
	// Corrupt checksum.
	f.Add(func() []byte {
		b := seed(Record{Type: RecDeclare, Seq: 9, Topic: "x", Class: 1})
		b[0] ^= 0xFF
		return b
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrShort) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if typ := RecType(data[6]); data[7] != 1 || data[16]|data[17] != 0 || typ == recRenew || typ == recAdvance || typ == recCursorAck {
			t.Fatalf("decoded a frame in an older layout: %x", data[:n])
		}
		re, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %+v: %v", rec, err)
		}
		if string(re) != string(data[:n]) {
			t.Fatalf("record is not canonical:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzUpgrade drives the converter with arbitrary wal.log and
// snapshot.dat bytes (an empty snapshot input means no snapshot file).
// Invariants:
//
//   - Open never panics;
//   - an Open that fails leaves both files byte for byte as they were;
//   - an Open that succeeds has converted the directory: wal.log is
//     gone, and a second Open reopens the same state at the same head
//     through the current path alone, without converting again.
func FuzzUpgrade(f *testing.F) {
	a, err := wire.MakeAddr(1, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	st := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a, Epoch: 6}}},
	}}
	wal := append(framed(0, uint8(RecDeclare), 11, nil, declareBody(1, "beta")),
		framed(1, typCursorAck, 12, nil, ackBody(55, "node1/app", "alpha"))...)
	wal = append(wal, framed(1, typAdvance, 13, nil, nil)...)
	wal = append(wal, framed(1, typRenew, 14, []byte("x"), addrBody(a, "alpha"))...)
	f.Add(wal, oldSnapshot(1, st, 10, nil))
	f.Add(wal[:len(wal)-3], oldSnapshot(2, st, 10, map[string][]string{"alpha": {"node1/app"}}))
	f.Add([]byte{}, oldSnapshot(2, st, 12, nil))
	f.Add(wal, []byte{})
	f.Add([]byte("garbage"), []byte("garbage"))

	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		walPath, snapPath := filepath.Join(dir, walName), filepath.Join(dir, snapName)
		writeFile(t, walPath, wal)
		if len(snap) > 0 {
			writeFile(t, snapPath, snap)
		}
		reg := nameservice.NewTopicRegistry()
		s, err := Open(dir, reg, Options{NoSync: true})
		if err != nil {
			for path, want := range map[string][]byte{walPath: wal, snapPath: snap} {
				if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
					t.Fatalf("failed open (%v) changed %s:\n got %x\nwant %x", err, filepath.Base(path), got, want)
				}
			}
			return
		}
		want, head := reg.ExportState(), s.Seq()
		s.Close()
		if hasWAL(dir) {
			t.Fatal("wal.log survived its conversion")
		}
		if err := recoverCurrent(dir); err != nil {
			t.Fatalf("the converted directory needs converting again: %v", err)
		}
		reg2 := nameservice.NewTopicRegistry()
		s2, err := Open(dir, reg2, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		s2.Close()
		if got := reg2.ExportState(); s2.Seq() != head || !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen at seq %d (want %d):\n got %+v\nwant %+v", s2.Seq(), head, got, want)
		}
	})
}

// recoverCurrent recovers dir through the current path alone, as Open
// does before it would call the converter.
func recoverCurrent(dir string) error {
	l, err := duralog.Open(dir, duralog.Options{SegmentBytes: journalSegmentBytes, NoSync: true})
	if err != nil {
		return err
	}
	defer l.Close()
	return (&Store{dir: dir, log: l, nosync: true}).recover(nameservice.NewTopicRegistry())
}
