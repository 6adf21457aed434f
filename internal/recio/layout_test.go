package recio_test

// The record-file clients, opened over directories laid out byte by
// byte here in the formats the tree wrote before they shared
// recio.File (wal.log + snapshot.dat v1 and v2, seg-%016x.log +
// cursors.dat) — and, the other way round, the bytes each client
// writes today compared with that layout. Together: an old directory
// opens under this code with the same recovered state, and a directory
// this code writes is one this code and the layouts above describe. A
// registry directory's journal is a duralog now: an old wal.log is
// replayed once and retired by the first snapshot.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/registrystore"
	"flipc/internal/wire"
)

func u32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func u64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func sealed(b []byte) []byte        { return u32(b, wire.Checksum(b)) }

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes written, differ from the %d-byte layout", filepath.Base(path), len(got), len(want))
	}
}

// cursor is one v2 snapshot cursor entry: a durable subscriber's name
// and acknowledged sequence.
type cursor struct {
	sub string
	seq uint64
}

// snapshotBytes lays out snapshot.dat: "FLPR" ver gen seq epoch
// ntopics { nameLen name class gen nsubs {addr epoch} [v2: ncursors
// {subLen sub seq}] } crc, with each topic's cursor entries taken from
// cursors by topic name.
func snapshotBytes(ver uint8, st nameservice.RegistryState, seq uint64, cursors map[string][]cursor) []byte {
	b := u32(nil, 0x464C5052)
	b = append(b, ver)
	b = u64(u64(u64(b, st.Gen), seq), st.Epoch)
	b = u32(b, uint32(len(st.Topics)))
	for _, t := range st.Topics {
		b = append(append(b, byte(len(t.Name))), t.Name...)
		b = u32(u32(append(b, t.Class), t.Gen), uint32(len(t.Subs)))
		for _, s := range t.Subs {
			b = u64(u32(b, uint32(s.Addr)), s.Epoch)
		}
		if ver >= 2 {
			b = u32(b, uint32(len(cursors[t.Name])))
			for _, c := range cursors[t.Name] {
				b = u64(append(append(b, byte(len(c.sub))), c.sub...), c.seq)
			}
		}
	}
	return sealed(b)
}

func TestRegistryDirectoryLayout(t *testing.T) {
	a1, _ := wire.MakeAddr(1, 4, 1)
	a2, _ := wire.MakeAddr(2, 9, 1)
	snap := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}}},
	}}
	cursors := map[string][]cursor{"alpha": {{"node1/app", 40}}}
	const snapSeq = 10
	wal := func(ver uint8, recs ...registrystore.Record) (b []byte) {
		for i := range recs {
			recs[i].Ver = ver
			var err error
			if b, err = registrystore.AppendRecord(b, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	covered := wal(recio.V0, registrystore.Record{Type: registrystore.RecDeclare, Seq: 9, Topic: "stale", Class: 1})
	live := []registrystore.Record{
		{Type: registrystore.RecSubscribe, Seq: 11, Topic: "alpha", Addr: a2},
		{Type: registrystore.RecCursorAck, Seq: 12, Topic: "alpha", Sub: "node1/app", Ack: 55},
		{Type: registrystore.RecDeclare, Seq: 13, Topic: "beta", Class: 1},
	}
	torn := wal(recio.V1, registrystore.Record{Type: registrystore.RecDeclare, Seq: 14, Topic: "never-acked", Class: 1})

	for _, ver := range []uint8{1, 2} {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "snapshot.dat"), snapshotBytes(ver, snap, snapSeq, cursors))
		mixed := append(append(covered, wal(recio.V0, live[0])...), wal(recio.V1, live[1:]...)...)
		writeFile(t, filepath.Join(dir, "wal.log"), append(mixed, torn[:len(torn)-4]...))

		reg := nameservice.NewTopicRegistry()
		st, err := registrystore.Open(dir, reg, registrystore.Options{})
		if err != nil {
			t.Fatalf("snapshot v%d: %v", ver, err)
		}
		if st.Seq() != 13 || st.SnapshotSeq() != snapSeq || st.WALRecords() != 3 {
			t.Fatalf("snapshot v%d: seq %d snapSeq %d walRecords %d", ver, st.Seq(), st.SnapshotSeq(), st.WALRecords())
		}
		got := reg.ExportState()
		if got.Gen != 3 || len(got.Topics) != 2 || got.Topics[0].Name != "alpha" || got.Topics[1].Name != "beta" ||
			len(got.Topics[0].Subs) != 2 || got.Topics[0].Subs[0].Addr != a1 || got.Topics[0].Subs[1].Addr != a2 {
			t.Fatalf("snapshot v%d: recovered %+v", ver, got)
		}
		wantFile(t, filepath.Join(dir, "wal.log"), mixed) // the torn record, and only it, is gone

		// What this code writes next goes to the journal, a duralog in
		// the same directory: each record framed as before and carried
		// whole as a payload record at its own sequence. A compaction
		// leaves a v2 snapshot of the exported state with no cursor
		// entries (the registry keeps none), retires wal.log, and moves
		// the snapshot's journal cursor.
		rec := registrystore.Record{Type: registrystore.RecDeclare, Topic: "gamma", Class: 1}
		if err := st.Journal(&rec); err != nil || rec.Seq != 14 {
			t.Fatalf("snapshot v%d: journaled seq %d: %v", ver, rec.Seq, err)
		}
		if err := reg.Declare("gamma", 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(reg); err != nil {
			t.Fatal(err)
		}
		wantFile(t, filepath.Join(dir, "snapshot.dat"), snapshotBytes(2, reg.ExportState(), 14, nil))
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
			t.Fatalf("snapshot v%d: wal.log survived the first snapshot: %v", ver, err)
		}
		if err := st.Journal(&registrystore.Record{Type: registrystore.RecRenew, Topic: "alpha", Addr: a1}); err != nil {
			t.Fatal(err)
		}
		if err := reg.Subscribe("alpha", a1); err != nil { // the renewal just journaled
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		flags := registrystore.ReplicationClass.Flags()
		var seg []byte
		for _, f := range []recio.Frame{
			{Type: 1, Ver: recio.V1, Seq: 14, Payload: append([]byte{flags}, wal(recio.V1, registrystore.Record{Type: registrystore.RecDeclare, Seq: 14, Topic: "gamma", Class: 1})...)},
			{Type: 2, Ver: recio.V1, Seq: 14, Payload: []byte("registrystore/snapshot")},
			{Type: 1, Ver: recio.V1, Seq: 15, Payload: append([]byte{flags}, wal(recio.V1, registrystore.Record{Type: registrystore.RecRenew, Seq: 15, Topic: "alpha", Addr: a1})...)},
		} {
			var err error
			if seg, err = recio.Append(seg, &f); err != nil {
				t.Fatal(err)
			}
		}
		wantFile(t, filepath.Join(dir, "seg-000000000000000e.log"), seg)
		wantFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(15, []string{"registrystore/snapshot"}, []uint64{14}))

		reg2 := nameservice.NewTopicRegistry()
		st2, err := registrystore.Open(dir, reg2, registrystore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st2.Close()
		if !reflect.DeepEqual(reg2.ExportState(), reg.ExportState()) {
			t.Fatalf("snapshot v%d: reopen after compaction diverged:\n got %+v\nwant %+v", ver, reg2.ExportState(), reg.ExportState())
		}
	}
}

// ack is a cursor record journaled behind payload record `after`.
type ack struct {
	after uint64
	sub   string
	seq   uint64
}

// segmentBytes lays out one duralog segment: v1 frames, type 1 =
// payload (seq, body flags|payload), type 2 = cursor ack (acked seq,
// body subscriber name).
func segmentBytes(t *testing.T, from, to uint64, acks ...ack) []byte {
	t.Helper()
	var b []byte
	add := func(typ uint8, seq uint64, body []byte) {
		var err error
		if b, err = recio.Append(b, &recio.Frame{Type: typ, Ver: recio.V1, Seq: seq, Payload: body}); err != nil {
			t.Fatal(err)
		}
	}
	for seq := from; seq <= to; seq++ {
		add(1, seq, append([]byte{0x02}, fmt.Sprintf("msg-%04d", seq)...))
		for _, a := range acks {
			if a.after == seq {
				add(2, a.seq, []byte(a.sub))
			}
		}
	}
	return b
}

// cursorsBytes lays out cursors.dat: "FLDC" ver head n {subLen sub seq}
// crc, subscribers sorted.
func cursorsBytes(head uint64, subs []string, seqs []uint64) []byte {
	b := append(u32(nil, 0x464C4443), 1)
	b = u32(u64(b, head), uint32(len(subs)))
	for i, s := range subs {
		b = u64(append(append(b, byte(len(s))), s...), seqs[i])
	}
	return sealed(b)
}

func TestDuralogDirectoryLayout(t *testing.T) {
	// Three segments of 10; "a" acked 12 in-segment, "idle" is a seq-0
	// cursor only the checkpoint knows (written when segment 1..10 was
	// retired — here it is still present, an older checkpoint).
	segs := map[string][]byte{
		"seg-0000000000000001.log": segmentBytes(t, 1, 10),
		"seg-000000000000000b.log": segmentBytes(t, 11, 20, ack{12, "a", 12}),
		"seg-0000000000000015.log": segmentBytes(t, 21, 30),
	}
	dir := t.TempDir()
	for name, b := range segs {
		if name == "seg-0000000000000015.log" {
			b = b[:len(b)-5] // record 30 torn
		}
		writeFile(t, filepath.Join(dir, name), b)
	}
	writeFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(20, []string{"a", "idle"}, []uint64{5, 0}))

	l, err := duralog.Open(dir, duralog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := l.Health()
	if h.Head != 29 || h.First != 1 || h.Segments != 3 || h.Cursors["a"] != 12 || h.Cursors["idle"] != 0 || len(h.Cursors) != 2 {
		t.Fatalf("recovered %+v", h)
	}
	var seqs []uint64
	if err := l.Replay(0, func(seq uint64, flags uint8, p []byte) error {
		if flags != 0x02 || string(p) != fmt.Sprintf("msg-%04d", seq) {
			t.Fatalf("seq %d: flags %#x payload %q", seq, flags, p)
		}
		seqs = append(seqs, seq)
		return nil
	}); err != nil || len(seqs) != 29 || seqs[0] != 1 || seqs[28] != 29 {
		t.Fatalf("replay: %v err %v", seqs, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantFile(t, filepath.Join(dir, "cursors.dat"), cursorsBytes(29, []string{"a", "idle"}, []uint64{12, 0}))

	// The same history written by this code: identical files.
	dir2 := t.TempDir()
	seg := len(segmentBytes(t, 1, 10))
	l2, err := duralog.Open(dir2, duralog.Options{SegmentBytes: seg})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 30; seq++ {
		if _, err := l2.Append(0x02, []byte(fmt.Sprintf("msg-%04d", seq))); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			if err := l2.Ack("idle", 0); err != nil {
				t.Fatal(err)
			}
		}
		if seq == 12 {
			if err := l2.Ack("a", 12); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs["seg-0000000000000001.log"] = segmentBytes(t, 1, 10, ack{1, "idle", 0})
	segs["cursors.dat"] = cursorsBytes(30, []string{"a", "idle"}, []uint64{12, 0})
	for name, want := range segs {
		wantFile(t, filepath.Join(dir2, name), want)
	}
}
