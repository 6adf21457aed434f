package registrystore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flipc/internal/nameservice"
	"flipc/internal/recio"
	"flipc/internal/wire"
)

// TestMixedVersionWALReplay replays a log written across the frame
// upgrade: v0 records from an old incarnation followed by v1 records
// (a declare, and a cursor ack recovery skips) from the new one. A
// node restarting mid-upgrade must reconstruct the same registry state
// from both.
func TestMixedVersionWALReplay(t *testing.T) {
	dir := t.TempDir()
	a, err := wire.MakeAddr(3, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecDeclare, Seq: 1, Topic: "alpha", Class: 2, Ver: recio.V0},
		{Type: RecSubscribe, Seq: 2, Topic: "alpha", Addr: a, Ver: recio.V0},
		{Type: RecFence, Seq: 3, Gen: 5, Ver: recio.V0},
		{Type: RecDeclare, Seq: 4, Topic: "beta", Class: 1, Ver: recio.V1},
		{Type: RecCursorAck, Seq: 5, Topic: "alpha", Sub: "node3/app", Ack: 77, Ver: recio.V1},
	}
	var wal []byte
	for i := range recs {
		wal, err = AppendRecord(wal, &recs[i])
		if err != nil {
			t.Fatalf("append %v: %v", recs[i].Type, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := nameservice.NewTopicRegistry()
	s, err := Open(dir, reg, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open mixed-version log: %v", err)
	}
	defer s.Close()
	if s.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", s.Seq())
	}
	snap, ok := reg.Snapshot("alpha")
	if !ok || len(snap.Subs) != 1 || snap.Subs[0].Addr != a {
		t.Fatalf("alpha membership not reconstructed: %+v (ok=%v)", snap, ok)
	}
	if _, ok := reg.Snapshot("beta"); !ok {
		t.Fatal("beta not reconstructed from v1 record")
	}
	if reg.RegistryGen() != 5 {
		t.Fatalf("registry gen = %d, want 5", reg.RegistryGen())
	}
}

// v2Snapshot lays out a version-2 snapshot.dat as the format has it
// (and as registries wrote it while they kept a cursor table): "FLPR"
// ver gen seq epoch ntopics { nameLen name class gen nsubs {addr epoch}
// ncursors {subLen sub seq} } crc. cursors holds each topic's entries
// as name → seq, written in the order given by names.
func v2Snapshot(st nameservice.RegistryState, seq uint64, cursors map[string][]string) []byte {
	b := binary.BigEndian.AppendUint32(nil, snapMagic)
	b = append(b, snapVersion)
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
		b = binary.BigEndian.AppendUint32(b, uint32(len(cursors[t.Name])))
		for i, name := range cursors[t.Name] {
			b = binary.BigEndian.AppendUint64(append(append(b, byte(len(name))), name...), uint64(40+i))
		}
	}
	return binary.BigEndian.AppendUint32(b, wire.Checksum(b))
}

// TestCursorSnapshotRoundTrip: a v2 snapshot holding cursor entries
// opens with its membership intact and the entries skipped, and the next
// compaction writes the same layout with a zero cursor count.
func TestCursorSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := wire.MakeAddr(3, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	state := nameservice.RegistryState{Gen: 4, Epoch: 9, Topics: []nameservice.TopicState{
		{Name: "audit", Class: 0, Gen: 2, Subs: []nameservice.Subscription{}},
		{Name: "orders", Class: 1, Gen: 6, Subs: []nameservice.Subscription{{Addr: a, Epoch: 8}}},
	}}
	cursors := map[string][]string{"orders": {"node5/billing", "node6/audit"}, "audit": {"x"}}
	if err := os.WriteFile(filepath.Join(dir, snapName), v2Snapshot(state, 12, cursors), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := nameservice.NewTopicRegistry()
	s, err := Open(dir, reg, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open a v2 snapshot with cursor entries: %v", err)
	}
	if got := reg.ExportState(); !reflect.DeepEqual(got, state) || s.Seq() != 12 {
		t.Fatalf("recovered seq %d, state\n got %+v\nwant %+v", s.Seq(), got, state)
	}
	if err := s.Compact(reg); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if want := v2Snapshot(state, 12, nil); !bytes.Equal(b, want) {
		t.Fatalf("compaction wrote %x\nwant the v2 layout with no cursors %x", b, want)
	}
}

// TestOldJournalRecoversMembership: a directory as registries wrote it
// while renewals, sweeps and cursor acks were journaled — a v2 snapshot
// with cursor entries, then renew, advance and cursor-ack records among
// the membership records — recovers the membership and generations it
// always recovered: the renewals and sweeps replay, and decide which
// lease expired, and the cursor acks are skipped.
func TestOldJournalRecoversMembership(t *testing.T) {
	dir := t.TempDir()
	a1, a2, a3 := addr(t, 1, 4), addr(t, 2, 9), addr(t, 3, 1)
	snap := nameservice.RegistryState{Gen: 3, Epoch: 7, Topics: []nameservice.TopicState{
		{Name: "alpha", Class: 2, Gen: 5, Subs: []nameservice.Subscription{{Addr: a1, Epoch: 6}}},
		{Name: "beta", Class: 0, Gen: 1, Subs: []nameservice.Subscription{{Addr: a2, Epoch: 7}}},
	}}
	if err := os.WriteFile(filepath.Join(dir, snapName), v2Snapshot(snap, 10, map[string][]string{"alpha": {"node1/app"}}), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nameservice.NewTopicRegistry(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: RecSubscribe, Topic: "alpha", Addr: a3},                  // epoch 7
		{Type: RecCursorAck, Topic: "alpha", Sub: "node1/app", Ack: 55}, // skipped
		{Type: RecAdvance}, // epoch 8
		{Type: RecRenew, Topic: "alpha", Addr: a1},
		{Type: RecAdvance},
		{Type: RecAdvance}, // epoch 10: a2 and a3 are 3 sweeps old, still within the TTL
		{Type: RecRenew, Topic: "alpha", Addr: a3},
		{Type: RecAdvance}, // epoch 11: a2, 4 sweeps old, expires; beta moves
		{Type: RecFence, Gen: 4},
		{Type: RecHeartbeat, Gen: 4},
	} {
		if err := st.Journal(&rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	reg := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := fmt.Sprintf("registry gen 4\nalpha class 2 gen 7 subs %v %v\nbeta class 0 gen 3 subs", a1, a3)
	if got := membership(reg); st2.Seq() != 20 || got != want {
		t.Fatalf("recovered seq %d, membership\n got %s\nwant %s", st2.Seq(), got, want)
	}
}

// TestV1SnapshotAccepted reopens from a version-1 snapshot file (no
// cursor sections) — what a pre-upgrade compaction left on disk.
func TestV1SnapshotAccepted(t *testing.T) {
	dir := t.TempDir()
	reg := nameservice.NewTopicRegistry()
	s, err := Open(dir, reg, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Declare("alpha", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(reg); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the snapshot as v1: strip each topic's cursor section
	// (here empty, so just the 4-byte count), downgrade the version
	// byte, and re-checksum.
	path := filepath.Join(dir, snapName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := b[:len(b)-4]
	// One topic, zero subs, zero cursors: the cursor count is the last
	// 4 bytes of the body.
	body = body[:len(body)-4]
	body[4] = snapVersionV1
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], wire.Checksum(body))
	if err := os.WriteFile(path, append(body, crc[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := nameservice.NewTopicRegistry()
	s2, err := Open(dir, reg2, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen from v1 snapshot: %v", err)
	}
	defer s2.Close()
	if _, ok := reg2.Snapshot("alpha"); !ok {
		t.Fatal("alpha lost reading v1 snapshot")
	}
}
