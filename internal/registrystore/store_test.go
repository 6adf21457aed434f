package registrystore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

func addr(t *testing.T, node wire.NodeID, index uint16) wire.Addr {
	t.Helper()
	a, err := wire.MakeAddr(node, index, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRecordRoundTrip(t *testing.T) {
	a, err := wire.MakeAddr(3, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecDeclare, Seq: 1, Topic: "alpha", Class: 2},
		{Type: RecSubscribe, Seq: 2, Topic: "alpha", Addr: a},
		{Type: RecRenew, Seq: 3, Topic: "alpha", Addr: a},
		{Type: RecUnsubscribe, Seq: 4, Topic: "alpha", Addr: a},
		{Type: RecAdvance, Seq: 5},
		{Type: RecFence, Seq: 6, Gen: 42},
		{Type: RecHeartbeat, Seq: 7, Gen: 43},
	}
	var buf []byte
	for i := range recs {
		buf, err = AppendRecord(buf, &recs[i])
		if err != nil {
			t.Fatalf("append %v: %v", recs[i].Type, err)
		}
	}
	off := 0
	for i := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got, recs[i])
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf, err := AppendRecord(nil, &Record{Type: RecDeclare, Seq: 1, Topic: "x", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte anywhere after the checksum field: must never decode.
	// A corrupted length field may read as a short record instead (it is
	// indistinguishable from a torn tail, and both stop the reader).
	for i := 4; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		_, _, err := DecodeRecord(mut)
		if i < 6 {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrShort) {
				t.Fatalf("length flip at %d: err = %v", i, err)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Any strict prefix must read short, never corrupt.
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeRecord(buf[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix %d: err = %v, want ErrShort", n, err)
		}
	}
}

// journalVia opens a store in dir, promotes it, runs mutate against the
// registry, and returns the registry (still open: crash = just not
// closing cleanly, since Open never depends on a clean shutdown).
func journalVia(t *testing.T, dir string, mutate func(*nameservice.TopicRegistry)) (*nameservice.TopicRegistry, *Store, *Manager) {
	t.Helper()
	reg := nameservice.NewTopicRegistry()
	st, err := Open(dir, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mgr := NewManager(reg, st)
	mgr.Promote()
	if mutate != nil {
		mutate(reg)
	}
	return reg, st, mgr
}

// membership renders what the journal reconstructs: the registry
// generation, and every topic's class, generation and subscriber
// addresses. Lease epochs are left out: renewals are soft state, and
// every incarnation restamps the leases before it serves.
func membership(reg *nameservice.TopicRegistry) string {
	st := reg.ExportState()
	out := fmt.Sprintf("registry gen %d", st.Gen)
	for _, t := range st.Topics {
		out += fmt.Sprintf("\n%s class %d gen %d subs", t.Name, t.Class, t.Gen)
		for _, s := range t.Subs {
			out += " " + s.Addr.String()
		}
	}
	return out
}

// TestRecoveryReplaysExactState: recovery from the journal rebuilds the
// membership and generations the registry served, through joins, a
// renewal, a sweep, a leave and a class change.
func TestRecoveryReplaysExactState(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := addr(t, 1, 4), addr(t, 2, 9)
	reg, _, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Declare("bulk", 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Subscribe("bulk", a1); err != nil {
			t.Fatal(err)
		}
		if err := r.Subscribe("bulk", a2); err != nil {
			t.Fatal(err)
		}
		r.Advance()
		if err := r.Subscribe("bulk", a1); err != nil { // renewal
			t.Fatal(err)
		}
		r.Unsubscribe("bulk", a2)
		if err := r.Declare("ctl", 2); err != nil {
			t.Fatal(err)
		}
	})
	want := membership(reg)

	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := membership(reg2); got != want {
		t.Fatalf("replayed state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestSteadyStateJournalsHeartbeatsOnly: a primary whose subscribers
// all renew on time journals one heartbeat a housekeeping tick and
// nothing else — renewals and sweeps are soft state.
func TestSteadyStateJournalsHeartbeatsOnly(t *testing.T) {
	const subs, ticks = 50, 10
	reg, st, mgr := journalVia(t, t.TempDir(), func(r *nameservice.TopicRegistry) {
		for i := 0; i < subs; i++ {
			if err := r.Subscribe("t", addr(t, 1, uint16(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	})
	from := st.Seq()
	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < subs; i++ {
			if err := reg.Subscribe("t", addr(t, 1, uint16(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if n := reg.Advance(); n != 0 {
			t.Fatalf("tick %d: %d renewed subscriptions expired", tick, n)
		}
		mgr.Heartbeat()
	}
	var types []RecType
	if err := st.Log().Replay(from+1, func(_ uint64, _ uint8, b []byte) error {
		rec, _, err := DecodeRecord(b)
		types = append(types, rec.Type)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != ticks || slices.ContainsFunc(types, func(r RecType) bool { return r != RecHeartbeat }) {
		t.Fatalf("%d ticks of %d renewing subscribers journaled %d records %v, want %d heartbeats", ticks, subs, len(types), types, ticks)
	}
}

func TestRecoveryGenerationsStrictlyAbove(t *testing.T) {
	dir := t.TempDir()
	a1 := addr(t, 1, 4)

	// Incarnation 1 serves some generations, then "crashes" (no Close).
	reg, _, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", a1); err != nil {
			t.Fatal(err)
		}
	})
	servedReg := reg.RegistryGen()
	servedTopic := reg.Gen("t")
	if servedReg == 0 {
		t.Fatal("incarnation 1 has no registry generation")
	}

	// Incarnation 2: recovery + promotion must fence strictly above.
	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr2 := NewManager(reg2, st2)
	gen2 := mgr2.Promote()
	if gen2 <= servedReg {
		t.Fatalf("incarnation 2 reggen %d not above served %d", gen2, servedReg)
	}
	if g := reg2.Gen("t"); g <= servedTopic {
		t.Fatalf("topic gen %d not above served %d", g, servedTopic)
	}

	// Subscribers recovered with a fresh lease: present immediately, and
	// they survive a full TTL of sweeps without renewing.
	snap, ok := reg2.Snapshot("t")
	if !ok || len(snap.Subs) != 1 || snap.Subs[0].Addr != a1 {
		t.Fatalf("recovered membership = %+v, ok=%v", snap.Subs, ok)
	}
	for i := 0; i < nameservice.DefaultTopicTTL; i++ {
		if n := reg2.Advance(); n != 0 {
			t.Fatalf("restamped lease expired after %d sweeps", i+1)
		}
	}
}

func TestWALTruncatedMidRecord(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := addr(t, 1, 4), addr(t, 1, 5)
	reg, _, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", a1); err != nil {
			t.Fatal(err)
		}
		if err := r.Subscribe("t", a2); err != nil {
			t.Fatal(err)
		}
	})
	_ = reg

	// Tear the final record mid-write, as a crash during append would.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments %v: %v", segs, err)
	}
	wal := segs[len(segs)-1]
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer st2.Close()
	// The torn record (a2's subscribe) is gone; everything before survives.
	snap, ok := reg2.Snapshot("t")
	if !ok || len(snap.Subs) != 1 || snap.Subs[0].Addr != a1 {
		t.Fatalf("post-truncation membership = %+v, ok=%v", snap.Subs, ok)
	}
	// The file was truncated at the tear, so new appends start clean.
	mgr2 := NewManager(reg2, st2)
	mgr2.Promote()
	if err := reg2.Subscribe("t", a2); err != nil {
		t.Fatal(err)
	}
	reg3 := nameservice.NewTopicRegistry()
	st3, err := Open(dir, reg3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if snap, _ := reg3.Snapshot("t"); len(snap.Subs) != 2 {
		t.Fatalf("post-repair membership = %+v", snap.Subs)
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := addr(t, 1, 4), addr(t, 2, 9)
	reg, st, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", a1); err != nil {
			t.Fatal(err)
		}
	})
	if err := st.Compact(reg); err != nil {
		t.Fatal(err)
	}
	if lag := st.WALRecords(); lag != 0 {
		t.Fatalf("WAL lag after compact = %d", lag)
	}
	// Mutations after the compaction land in the fresh log.
	if err := reg.Subscribe("t", a2); err != nil {
		t.Fatal(err)
	}
	want := reg.ExportState()

	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := reg2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+log recovery diverged:\n got %+v\nwant %+v", got, want)
	}
	if st2.SnapshotSeq() == 0 {
		t.Fatal("recovered store lost the snapshot sequence")
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	reg, st, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", addr(t, 1, 4)); err != nil {
			t.Fatal(err)
		}
	})
	if err := st.Compact(reg); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snapshot.dat")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nameservice.NewTopicRegistry(), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestResyncDiscardsDivergentLocalHistory(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := addr(t, 1, 4), addr(t, 2, 9)
	// An ex-primary journals a history whose tail was never replicated:
	// its log head runs ahead of the point the new primary's snapshot
	// will cover.
	journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", a1); err != nil {
			t.Fatal(err)
		}
		if err := r.Subscribe("stale", a2); err != nil {
			t.Fatal(err)
		}
	})

	// It restarts as a standby and resyncs from the new primary, whose
	// state lacks the divergent tail and whose sequence is behind the
	// old log's head.
	reg := nameservice.NewTopicRegistry()
	st, err := Open(dir, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := nameservice.NewTopicRegistry()
	src.SetRegistryGen(9)
	if err := src.Subscribe("t", a1); err != nil {
		t.Fatal(err)
	}
	state := src.ExportState()
	resyncSeq := uint64(2)
	if head := st.Seq(); head <= resyncSeq {
		t.Fatalf("test setup: old log head %d not ahead of resync point %d", head, resyncSeq)
	}
	apply := NewApply(nil, reg, st)
	if err := apply.Resync(state, resyncSeq); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != resyncSeq || st.WALRecords() != 0 {
		t.Fatalf("after resync: seq=%d walRecords=%d, want seq=%d and an empty log",
			st.Seq(), st.WALRecords(), resyncSeq)
	}

	// A restart must recover exactly the resynced state: none of the
	// divergent records — even those whose sequence numbers exceed the
	// resync point — may replay on top of the snapshot.
	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := reg2.ExportState(); !reflect.DeepEqual(got, state) {
		t.Fatalf("restart after resync diverged:\n got %+v\nwant %+v", got, state)
	}
	if _, ok := reg2.Snapshot("stale"); ok {
		t.Fatal("divergent old-history topic resurrected after restart")
	}
	if st2.Seq() != resyncSeq {
		t.Fatalf("restarted store seq = %d, want %d", st2.Seq(), resyncSeq)
	}
	// The journal continues from the resync point, as the stream the
	// standby follows next numbers its records.
	rec := Record{Type: RecSubscribe, Topic: "t", Addr: a2}
	if err := st2.Journal(&rec); err != nil || rec.Seq != resyncSeq+1 {
		t.Fatalf("journal after resync: seq %d, err %v; want seq %d", rec.Seq, err, resyncSeq+1)
	}
}

// TestWrittenRecordsSurviveProcessCrash: a heartbeat is not synced, but
// it is handed to the OS before Journal returns, so a process that dies
// without closing its store loses none. A second Open of the same
// directory, with the first store still open and never flushed again,
// plays the restarted process. A renewal journals nothing at all.
func TestWrittenRecordsSurviveProcessCrash(t *testing.T) {
	dir := t.TempDir()
	a := addr(t, 1, 4)
	reg, st, mgr := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", a); err != nil {
			t.Fatal(err)
		}
	})
	synced := st.Seq()
	if err := reg.Subscribe("t", a); err != nil { // a renewal
		t.Fatal(err)
	}
	mgr.Heartbeat()
	mgr.Heartbeat()
	if st.Seq() != synced+2 {
		t.Fatalf("journaled to %d, want %d: two heartbeats and no renewal", st.Seq(), synced+2)
	}

	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Seq() != st.Seq() {
		t.Fatalf("recovered to %d, journaled to %d: unsynced records were lost with the process", st2.Seq(), st.Seq())
	}
}

func TestStoreErrorDemotesPrimary(t *testing.T) {
	dir := t.TempDir()
	reg, st, mgr := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		if err := r.Subscribe("t", addr(t, 1, 4)); err != nil {
			t.Fatal(err)
		}
	})
	// Break the journal out from under the store: its directory becomes
	// a file, so the segment the next write opens cannot be created, and
	// every further journal write fails stickily.
	st.log.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(dir) })

	// The next mutation cannot be made durable: the manager must demote
	// itself rather than keep acknowledging non-durable, non-replicated
	// mutations as primary.
	if err := reg.Subscribe("t", addr(t, 2, 9)); err != nil {
		t.Fatal(err)
	}
	if mgr.Role() != RoleStandby {
		t.Fatalf("role after store failure = %v, want standby", mgr.Role())
	}
	h := mgr.Health()
	if h.Demotions != 1 || h.StoreErr == "" {
		t.Fatalf("health after store failure = %+v, want one demotion and a store error", h)
	}
}

func TestDoubleFailoverFencing(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	// A is the original primary.
	regA := nameservice.NewTopicRegistry()
	stA, err := Open(dirA, regA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgrA := NewManager(regA, stA)
	genA := mgrA.Promote()
	if err := regA.Subscribe("t", addr(t, 1, 4)); err != nil {
		t.Fatal(err)
	}
	stA.Close() // A "dies"

	// B takes over, having observed A's generation via replication.
	regB := nameservice.NewTopicRegistry()
	stB, err := Open(dirB, regB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	mgrB := NewManager(regB, stB)
	mgrB.ObservePeer(genA)
	genB := mgrB.Promote()
	if genB <= genA {
		t.Fatalf("takeover gen %d not above primary gen %d", genB, genA)
	}

	// A returns, recovers its own history, and must observe B's fence:
	// it may not serve at or below genB.
	regA2 := nameservice.NewTopicRegistry()
	stA2, err := Open(dirA, regA2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA2.Close()
	mgrA2 := NewManager(regA2, stA2)
	if demoted := mgrA2.ObservePeer(genB); demoted {
		t.Fatal("standby cannot be demoted")
	}
	if mgrA2.Role() != RoleStandby {
		t.Fatalf("returning primary role = %v before promotion", mgrA2.Role())
	}
	genA2 := mgrA2.Promote()
	if genA2 <= genB {
		t.Fatalf("returning primary fenced at %d, not above peer %d", genA2, genB)
	}

	// The symmetric race: if A had promoted first and then learned of
	// B's equal-or-higher fence, it must yield.
	mgrB.ObservePeer(genA2)
	if mgrB.Role() != RoleStandby {
		t.Fatal("old primary did not yield to a peer fence at or above its own")
	}
	if h := mgrB.Health(); h.Demotions != 1 || h.Role != "standby" {
		t.Fatalf("health after demotion = %+v", h)
	}
}

func TestEvictEndpointBumpsGenAndNotifies(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := addr(t, 1, 4), addr(t, 2, 4)
	reg, _, _ := journalVia(t, dir, func(r *nameservice.TopicRegistry) {
		for _, tp := range []string{"x", "y"} {
			if err := r.Subscribe(tp, a1); err != nil {
				t.Fatal(err)
			}
			if err := r.Subscribe(tp, a2); err != nil {
				t.Fatal(err)
			}
		}
	})
	genX := reg.Gen("x")
	if n := reg.EvictEndpoint(1, 4); n != 2 {
		t.Fatalf("evicted %d subscriptions, want 2", n)
	}
	if reg.Gen("x") <= genX {
		t.Fatal("eviction did not bump the topic generation")
	}
	// Evictions journal as unsubscribes: recovery must not resurrect.
	reg2 := nameservice.NewTopicRegistry()
	st2, err := Open(dir, reg2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, tp := range []string{"x", "y"} {
		snap, _ := reg2.Snapshot(tp)
		if len(snap.Subs) != 1 || snap.Subs[0].Addr != a2 {
			t.Fatalf("topic %s recovered membership = %+v", tp, snap.Subs)
		}
	}
}
