package registrystore

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
	"flipc/internal/wire"
)

// The layouts registries wrote before today's, laid out by hand: the
// codec writes none of them any more.

// framed lays out one record frame in either version recio has had:
// version 0's body is the payload alone; version 1's prefixes it with a
// length-prefixed extension area.
func framed(ver, typ uint8, seq uint64, ext, payload []byte) []byte {
	body := payload
	if ver == 1 {
		body = append(append(binary.BigEndian.AppendUint16(nil, uint16(len(ext))), ext...), payload...)
	}
	rec := binary.BigEndian.AppendUint64(append(binary.BigEndian.AppendUint16(nil, uint16(len(body))), typ, ver), seq)
	rec = append(rec, body...)
	return append(binary.BigEndian.AppendUint32(nil, wire.Checksum(rec)), rec...)
}

// Record bodies: declare = class | topic; subscribe, renew and
// unsubscribe = addr | topic; fence and heartbeat = generation;
// advance = empty; cursor-ack = acked seq | subLen | sub | topic.
func declareBody(class uint8, topic string) []byte { return append([]byte{class}, topic...) }
func addrBody(a wire.Addr, topic string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(a)), topic...)
}
func genBody(gen uint64) []byte { return binary.BigEndian.AppendUint64(nil, gen) }
func ackBody(ack uint64, sub, topic string) []byte {
	return append(append(binary.BigEndian.AppendUint64(nil, ack), byte(len(sub))), sub+topic...)
}

// Retired record type numbers, as the old journals hold them.
const (
	typRenew     = 3
	typAdvance   = 5
	typCursorAck = 8
)

// oldSnapshot lays out snapshot.dat in version 1 or 2: "FLPR" ver gen
// seq epoch ntopics { nameLen name class gen nsubs {addr epoch}
// [v2: ncursors {subLen sub seq}] } crc. cursors holds each topic's
// entries by subscriber name, written in the order given.
func oldSnapshot(ver uint8, st nameservice.RegistryState, seq uint64, cursors map[string][]string) []byte {
	b := binary.BigEndian.AppendUint32(nil, snapMagic)
	b = append(b, ver)
	b = binary.BigEndian.AppendUint64(b, st.Gen)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, st.Epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(st.Topics)))
	for _, t := range st.Topics {
		b = append(append(b, byte(len(t.Name))), t.Name...)
		b = binary.BigEndian.AppendUint32(append(b, t.Class), t.Gen)
		b = binary.BigEndian.AppendUint32(b, uint32(len(t.Subs)))
		for _, s := range t.Subs {
			b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(b, uint32(s.Addr)), s.Epoch)
		}
		if ver >= 2 {
			b = binary.BigEndian.AppendUint32(b, uint32(len(cursors[t.Name])))
			for i, name := range cursors[t.Name] {
				b = binary.BigEndian.AppendUint64(append(append(b, byte(len(name))), name...), uint64(40+i))
			}
		}
	}
	return binary.BigEndian.AppendUint32(b, wire.Checksum(b))
}

// oldJournal lays out a journal as a duralog in dir, restarted at head:
// each framed record a payload record at its own sequence.
func oldJournal(t *testing.T, dir string, head uint64, recs ...[]byte) {
	t.Helper()
	l, err := duralog.Open(dir, duralog.Options{SegmentBytes: journalSegmentBytes, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(head); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := l.Append(ReplicationClass.Flags(), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openOld opens the old directory dir and checks the state and head it
// recovers, and that it was converted: no wal.log is left, the snapshot
// sits at the recovered head, and the current path alone reopens it.
// It returns the reopened store.
func openOld(t *testing.T, dir string, want nameservice.RegistryState, wantSeq uint64) (*nameservice.TopicRegistry, *Store) {
	t.Helper()
	for pass := 0; ; pass++ {
		reg := nameservice.NewTopicRegistry()
		s, err := Open(dir, reg, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open %d: %v", pass, err)
		}
		if got := reg.ExportState(); s.Seq() != wantSeq || !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d recovered seq %d (want %d), state\n got %+v\nwant %+v", pass, s.Seq(), wantSeq, got, want)
		}
		if hasWAL(dir) || s.SnapshotSeq() != wantSeq {
			t.Fatalf("open %d: wal.log left %v, snapshot at %d, want none at %d", pass, hasWAL(dir), s.SnapshotSeq(), wantSeq)
		}
		if pass == 1 {
			t.Cleanup(func() { s.Close() })
			return reg, s
		}
		s.Close()
		if err := recoverCurrent(dir); err != nil {
			t.Fatalf("the converted directory needs converting again: %v", err)
		}
	}
}

// TestMixedVersionWALReplay replays a wal.log written across the frame
// upgrade: version-0 records from an old incarnation followed by
// version-1 ones — one of them carrying an extension area, and a
// cursor ack, which replays as nothing.
func TestMixedVersionWALReplay(t *testing.T) {
	dir := t.TempDir()
	a := addr(t, 3, 7)
	var wal []byte
	for _, rec := range [][]byte{
		framed(0, uint8(RecDeclare), 1, nil, declareBody(2, "alpha")),
		framed(0, uint8(RecSubscribe), 2, nil, addrBody(a, "alpha")),
		framed(0, uint8(RecFence), 3, nil, genBody(5)),
		framed(1, uint8(RecDeclare), 4, []byte("trace"), declareBody(1, "beta")),
		framed(1, typCursorAck, 5, nil, ackBody(77, "node3/app", "alpha")),
	} {
		wal = append(wal, rec...)
	}
	writeFile(t, filepath.Join(dir, "wal.log"), wal)
	openOld(t, dir, nameservice.RegistryState{Gen: 5, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 3, Subs: []nameservice.Subscription{{Addr: a}}},
		{Name: "beta", Class: 1, Gen: 1, Subs: []nameservice.Subscription{}},
	}}, 5)
}

// TestCursorSnapshotRoundTrip: a v2 snapshot holding cursor entries
// opens with its membership intact and the entries skipped, and the next
// compaction writes the same layout with a zero cursor count.
func TestCursorSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	state := nameservice.RegistryState{Gen: 4, Epoch: 9, Topics: []nameservice.TopicState{
		{Name: "audit", Class: 0, Gen: 2, Subs: []nameservice.Subscription{}},
		{Name: "orders", Class: 1, Gen: 6, Subs: []nameservice.Subscription{{Addr: addr(t, 3, 7), Epoch: 8}}},
	}}
	cursors := map[string][]string{"orders": {"node5/billing", "node6/audit"}, "audit": {"x"}}
	writeFile(t, filepath.Join(dir, snapName), oldSnapshot(2, state, 12, cursors))
	reg, s := openOld(t, dir, state, 12)
	if err := s.Compact(reg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if want := oldSnapshot(2, state, 12, nil); !bytes.Equal(b, want) {
		t.Fatalf("compaction wrote %x\nwant the v2 layout with no cursors %x", b, want)
	}
}

// TestOldJournalRecoversMembership: a directory as registries wrote it
// while renewals, sweeps and cursor acks were journaled — a v2 snapshot
// with cursor entries, then renew, advance and cursor-ack records among
// the membership records — recovers the membership, generations and
// epoch it always recovered: the renewals and sweeps replay, and decide
// which lease expired, and the cursor acks are skipped.
func TestOldJournalRecoversMembership(t *testing.T) {
	dir := t.TempDir()
	a1, a2, a3 := addr(t, 1, 4), addr(t, 2, 9), addr(t, 3, 1)
	snap := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}}},
		{Name: "beta", Class: 0, Gen: 1, Subs: []nameservice.Subscription{{Addr: a2, Epoch: 7}}},
	}}
	writeFile(t, filepath.Join(dir, snapName), oldSnapshot(2, snap, 10, map[string][]string{"alpha": {"node1/app"}}))
	oldJournal(t, dir, 10,
		framed(1, uint8(RecSubscribe), 11, nil, addrBody(a3, "alpha")), // epoch 7
		framed(1, typCursorAck, 12, nil, ackBody(55, "node1/app", "alpha")),
		framed(1, typAdvance, 13, nil, nil), // epoch 8
		framed(1, typRenew, 14, nil, addrBody(a1, "alpha")),
		framed(1, typAdvance, 15, nil, nil),
		framed(1, typAdvance, 16, nil, nil), // epoch 10: a2 and a3 are 3 sweeps old, still within the TTL
		framed(1, typRenew, 17, nil, addrBody(a3, "alpha")),
		framed(1, typAdvance, 18, nil, nil), // epoch 11: a2, 4 sweeps old, expires; beta moves
		framed(1, uint8(RecFence), 19, nil, genBody(4)),
		framed(1, uint8(RecHeartbeat), 20, nil, genBody(4)),
	)
	openOld(t, dir, nameservice.RegistryState{Gen: 4, Epoch: 11, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 7, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 8}, {Addr: a3, Epoch: 10}}},
		{Name: "beta", Class: 0, Gen: 3, Subs: []nameservice.Subscription{}},
	}}, 20)
}

// TestV1SnapshotAccepted reopens from a version-1 snapshot file (no
// cursor sections) — what a pre-upgrade compaction left on disk.
func TestV1SnapshotAccepted(t *testing.T) {
	dir := t.TempDir()
	state := nameservice.RegistryState{Gen: 2, Epoch: 3, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 1, Subs: []nameservice.Subscription{{Addr: addr(t, 1, 4), Epoch: 3}}},
	}}
	writeFile(t, filepath.Join(dir, snapName), oldSnapshot(1, state, 6, nil))
	openOld(t, dir, state, 6)
}

// TestOldRegistryDirectoryRecovers opens a directory as registries laid
// it out before the journal became a duralog, under both snapshot
// versions: a snapshot (v2 with a cursor entry) at seq 10, then a
// wal.log of version-0 and version-1 records — one covered by the
// snapshot, a cursor ack among the live ones, and a torn final record
// that was never acknowledged and so is not recovered.
func TestOldRegistryDirectoryRecovers(t *testing.T) {
	a1, a2 := addr(t, 1, 4), addr(t, 2, 9)
	snap := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}}},
	}}
	var wal []byte
	for _, rec := range [][]byte{
		framed(0, uint8(RecDeclare), 9, nil, declareBody(1, "stale")),
		framed(0, uint8(RecSubscribe), 11, nil, addrBody(a2, "alpha")),
		framed(1, typCursorAck, 12, nil, ackBody(55, "node1/app", "alpha")),
		framed(1, uint8(RecDeclare), 13, nil, declareBody(1, "beta")),
	} {
		wal = append(wal, rec...)
	}
	torn := framed(1, uint8(RecDeclare), 14, nil, declareBody(1, "never-acked"))
	want := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 6, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}, {Addr: a2, Epoch: 7}}},
		{Name: "beta", Class: 1, Gen: 1, Subs: []nameservice.Subscription{}},
	}}
	for _, ver := range []uint8{1, 2} {
		t.Run(fmt.Sprintf("snapshot v%d", ver), func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, snapName), oldSnapshot(ver, snap, 10, map[string][]string{"alpha": {"node1/app"}}))
			writeFile(t, filepath.Join(dir, "wal.log"), append(append([]byte{}, wal...), torn[:len(torn)-4]...))
			openOld(t, dir, want, 13)
		})
	}
}

// TestConversionCrashReopens cuts the conversion after each of its
// steps — the converted snapshot lands, the journal restarts at the
// converted head, the snapshot's cursor moves there, wal.log goes — and
// reopens: every cut converts (again, if it must) to the state and head
// an uncut conversion reaches (openOld checks the rest).
func TestConversionCrashReopens(t *testing.T) {
	a1, a2 := addr(t, 1, 4), addr(t, 2, 9)
	old := func(t *testing.T) string {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, snapName), oldSnapshot(1, nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
			{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}}},
		}}, 10, nil))
		var wal []byte
		for _, rec := range [][]byte{
			framed(0, uint8(RecSubscribe), 11, nil, addrBody(a2, "alpha")),
			framed(1, typCursorAck, 12, nil, ackBody(55, "node1/app", "alpha")),
			framed(1, uint8(RecDeclare), 13, []byte("x"), declareBody(1, "beta")),
		} {
			wal = append(wal, rec...)
		}
		writeFile(t, filepath.Join(dir, walName), wal)
		oldJournal(t, dir, 13,
			framed(1, typRenew, 14, nil, addrBody(a1, "alpha")),
			framed(1, typAdvance, 15, nil, nil),
			framed(1, uint8(RecFence), 16, nil, genBody(4)))
		return dir
	}
	reg := nameservice.NewTopicRegistry()
	s, err := Open(old(t), reg, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want, head := reg.ExportState(), s.Seq()
	s.Close()
	if head != 16 || want.Gen != 4 || want.Epoch != 8 || len(want.Topics) != 2 {
		t.Fatalf("converted to seq %d, state %+v", head, want)
	}

	withLog := func(dir string, fn func(*duralog.Log) error) error {
		l, err := duralog.Open(dir, duralog.Options{SegmentBytes: journalSegmentBytes, NoSync: true})
		if err != nil {
			return err
		}
		defer l.Close()
		return fn(l)
	}
	steps := []func(dir string) error{
		func(dir string) error { return writeSnapshot(filepath.Join(dir, snapName), want, head, true) },
		func(dir string) error { return withLog(dir, func(l *duralog.Log) error { return l.Reset(head) }) },
		func(dir string) error {
			return withLog(dir, func(l *duralog.Log) error { return l.Ack(snapCursor, head) })
		},
		func(dir string) error { return os.Remove(filepath.Join(dir, walName)) },
	}
	for cut := 1; cut <= len(steps); cut++ {
		t.Run(fmt.Sprintf("after step %d", cut), func(t *testing.T) {
			dir := old(t)
			for _, step := range steps[:cut] {
				if err := step(dir); err != nil {
					t.Fatal(err)
				}
			}
			openOld(t, dir, want, head)
		})
	}
}
