package nameservice

import (
	"testing"

	"flipc/internal/wire"
)

func topicAddr(t *testing.T, node wire.NodeID, idx, gen uint16) wire.Addr {
	t.Helper()
	a, err := wire.MakeAddr(node, idx, gen)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTopicRegistryMembership(t *testing.T) {
	r := NewTopicRegistry()
	a1 := topicAddr(t, 1, 3, 1)
	a2 := topicAddr(t, 2, 7, 1)

	if _, ok := r.Snapshot("ctl"); ok {
		t.Fatal("snapshot of unknown topic reported ok")
	}
	if err := r.Declare("ctl", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Subscribe("ctl", a1); err != nil {
		t.Fatal(err)
	}
	if err := r.Subscribe("ctl", a2); err != nil {
		t.Fatal(err)
	}
	snap, ok := r.Snapshot("ctl")
	if !ok || len(snap.Subs) != 2 {
		t.Fatalf("snapshot = %+v ok=%v, want 2 subs", snap, ok)
	}
	if snap.Class != 2 {
		t.Fatalf("class = %d, want 2", snap.Class)
	}
	gen := snap.Gen

	// Renewal must not bump the generation (fanout plans stay cached).
	if err := r.Subscribe("ctl", a1); err != nil {
		t.Fatal(err)
	}
	if g := r.Gen("ctl"); g != gen {
		t.Fatalf("renewal bumped gen %d -> %d", gen, g)
	}

	// Leave bumps it.
	r.Unsubscribe("ctl", a2)
	if g := r.Gen("ctl"); g == gen {
		t.Fatal("unsubscribe did not bump gen")
	}
	snap, _ = r.Snapshot("ctl")
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != a1 {
		t.Fatalf("after leave: %+v", snap.Subs)
	}

	// Idempotent unsubscribe.
	g := r.Gen("ctl")
	r.Unsubscribe("ctl", a2)
	if r.Gen("ctl") != g {
		t.Fatal("idempotent unsubscribe bumped gen")
	}
}

func TestTopicRegistryValidation(t *testing.T) {
	r := NewTopicRegistry()
	if err := r.Subscribe("", topicAddr(t, 0, 0, 1)); err == nil {
		t.Fatal("empty topic accepted")
	}
	if err := r.Subscribe("x", wire.NilAddr); err == nil {
		t.Fatal("nil address accepted")
	}
	if err := r.Declare("", 0); err == nil {
		t.Fatal("empty topic declared")
	}
}

func TestTopicRegistryLeaseExpiry(t *testing.T) {
	r := NewTopicRegistry()
	r.SetTTL(2)
	a1 := topicAddr(t, 1, 3, 1)
	a2 := topicAddr(t, 2, 7, 1)
	if err := r.Subscribe("t", a1); err != nil {
		t.Fatal(err)
	}
	if err := r.Subscribe("t", a2); err != nil {
		t.Fatal(err)
	}

	// a1 renews every epoch; a2 goes silent and must age out once more
	// than TTL epochs have passed since its last renewal.
	for i := 0; i < 2; i++ {
		if n := r.Advance(); n != 0 {
			t.Fatalf("epoch %d: expired %d early", i, n)
		}
		if err := r.Subscribe("t", a1); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Advance(); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	snap, _ := r.Snapshot("t")
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != a1 {
		t.Fatalf("survivors = %+v, want only renewing subscriber", snap.Subs)
	}
}

func TestTopicRegistryClassChangeBumpsGen(t *testing.T) {
	r := NewTopicRegistry()
	if err := r.Declare("t", 0); err != nil {
		t.Fatal(err)
	}
	g := r.Gen("t")
	if err := r.Declare("t", 0); err != nil {
		t.Fatal(err)
	}
	if r.Gen("t") != g {
		t.Fatal("no-op declare bumped gen")
	}
	if err := r.Declare("t", 1); err != nil {
		t.Fatal(err)
	}
	if r.Gen("t") == g {
		t.Fatal("class change did not bump gen")
	}
	if got := r.Topics(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("topics = %v", got)
	}
}

// A snapshot's generation hint (Op.Seq = Gen+1) only ever saves the
// slices: a zero or stale hint gets the full snapshot, and every change
// a publisher's plan reads moves Gen, so a {Name, Gen} answer never
// hides one. A renewal, which changes nothing a plan reads, keeps Gen.
func TestSnapshotGenerationHint(t *testing.T) {
	r := NewTopicRegistry()
	r.SetTTL(1)
	a, b, pat := topicAddr(t, 1, 3, 1), topicAddr(t, 1, 4, 1), topicAddr(t, 2, 9, 1)
	snapshot := func(seq uint64) TopicSnapshot {
		t.Helper()
		s, err := r.Apply(Op{Kind: OpSnapshot, Name: "t", Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := r.Declare("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Subscribe("t", a); err != nil {
		t.Fatal(err)
	}
	gen := snapshot(0).Gen
	for _, seq := range []uint64{0, uint64(gen), uint64(gen) + 2} {
		if s := snapshot(seq); len(s.Subs) != 1 || s.Gen != gen || s.Class != 1 {
			t.Fatalf("hint %d at generation %d: %+v, want the full snapshot", seq, gen, s)
		}
	}
	if s := snapshot(uint64(gen) + 1); s.Name != "t" || s.Gen != gen || s.Class != 0 || s.Subs != nil || s.Pats != nil {
		t.Fatalf("matching hint: %+v, want {Name, Gen} alone", s)
	}
	for _, step := range []struct {
		what  string
		do    func() error
		moves bool
	}{
		{"renewal", func() error { return r.Subscribe("t", a) }, false},
		{"exact subscribe", func() error { return r.Subscribe("t", b) }, true},
		{"exact unsubscribe", func() error { r.Unsubscribe("t", b); return nil }, true},
		{"pattern subscribe", func() error { return r.SubscribePattern("t", pat) }, true},
		{"class change", func() error { return r.Declare("t", 2) }, true},
		{"lease expiry", func() error { r.Advance(); r.Advance(); return nil }, true},
	} {
		before := snapshot(0).Gen
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		s := snapshot(uint64(before) + 1)
		if moved := s.Gen != before; moved != step.moves || moved != (s.Subs != nil) {
			t.Fatalf("%s: generation %d -> %d with subs %v, want moved=%v and a full snapshot iff it moved", step.what, before, s.Gen, s.Subs, step.moves)
		}
	}
}
