package faultinject

import (
	"bytes"
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

// fakeTransport is a loop-back transport: everything sent to any node
// lands in its own inbox, in order.
type fakeTransport struct {
	node  wire.NodeID
	inbox [][]byte
	busy  bool
}

func (f *fakeTransport) TrySend(dst wire.NodeID, frame []byte) bool {
	if f.busy {
		return false
	}
	f.inbox = append(f.inbox, append([]byte(nil), frame...))
	return true
}

func (f *fakeTransport) Poll() ([]byte, bool) {
	if len(f.inbox) == 0 {
		return nil, false
	}
	frame := f.inbox[0]
	f.inbox = f.inbox[1:]
	return frame, true
}

func (f *fakeTransport) LocalNode() wire.NodeID { return f.node }

func frameN(n int) []byte {
	frame := make([]byte, 32)
	frame[0] = byte(n)
	return frame
}

func TestValidateRejectsBadRates(t *testing.T) {
	if _, err := Wrap(&fakeTransport{}, Config{DropRate: 1.5}); err == nil {
		t.Fatal("DropRate 1.5 accepted")
	}
	if _, err := Wrap(&fakeTransport{}, Config{ReorderRate: -0.1}); err == nil {
		t.Fatal("negative ReorderRate accepted")
	}
	if _, err := Wrap(nil, Config{}); err == nil {
		t.Fatal("nil inner accepted")
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	inner := &fakeTransport{node: 3}
	j, err := Wrap(inner, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if j.LocalNode() != 3 {
		t.Fatal("LocalNode not forwarded")
	}
	if !j.PeerUp(0) {
		t.Fatal("PeerUp should default true")
	}
	for i := 0; i < 5; i++ {
		if !j.TrySend(0, frameN(i)) {
			t.Fatal("send refused")
		}
	}
	for i := 0; i < 5; i++ {
		frame, ok := j.Poll()
		if !ok || frame[0] != byte(i) {
			t.Fatalf("frame %d: got %v,%v", i, frame, ok)
		}
	}
	st := j.Stats()
	if st.Sent != 5 || st.Forwarded != 5 ||
		st.Dropped+st.Duplicated+st.Corrupted+st.Delayed+st.Reordered+st.Partitioned != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBusyInnerPropagatesUncounted(t *testing.T) {
	inner := &fakeTransport{busy: true}
	j, _ := Wrap(inner, Config{})
	if j.TrySend(0, frameN(0)) {
		t.Fatal("busy inner accepted")
	}
	if st := j.Stats(); st.Sent != 0 {
		t.Fatalf("refused send counted: %+v", st)
	}
}

func TestDropRate(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{Seed: 1, DropRate: 1})
	for i := 0; i < 10; i++ {
		if !j.TrySend(0, frameN(i)) {
			t.Fatal("drop must report acceptance")
		}
	}
	if len(inner.inbox) != 0 {
		t.Fatalf("%d frames leaked past DropRate=1", len(inner.inbox))
	}
	if st := j.Stats(); st.Sent != 10 || st.Dropped != 10 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{})
	j.Partition(2, true)
	j.TrySend(2, frameN(0)) // swallowed
	j.TrySend(1, frameN(1)) // passes
	if len(inner.inbox) != 1 || inner.inbox[0][0] != 1 {
		t.Fatalf("partition leaked: %d frames", len(inner.inbox))
	}
	j.Heal()
	j.TrySend(2, frameN(2))
	if len(inner.inbox) != 2 {
		t.Fatal("healed partition still swallowing")
	}
	if st := j.Stats(); st.Partitioned != 1 || st.Sent != 3 || st.Forwarded != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicate(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{Seed: 1, DupRate: 1})
	j.TrySend(0, frameN(7))
	if len(inner.inbox) != 2 {
		t.Fatalf("DupRate=1 produced %d frames, want 2", len(inner.inbox))
	}
	if !bytes.Equal(inner.inbox[0], inner.inbox[1]) {
		t.Fatal("duplicate differs from original")
	}
	if st := j.Stats(); st.Duplicated != 1 || st.Forwarded != 2 || st.Sent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptFlipsBitsInACopy(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{Seed: 42, CorruptRate: 1, CorruptBits: 3})
	orig := frameN(9)
	keep := append([]byte(nil), orig...)
	j.TrySend(0, orig)
	if !bytes.Equal(orig, keep) {
		t.Fatal("caller's frame was damaged")
	}
	if bytes.Equal(inner.inbox[0], orig) {
		// An odd flip count can never cancel out completely.
		t.Fatal("corrupted frame identical to original")
	}
	diffBits := 0
	for i := range orig {
		for b := 0; b < 8; b++ {
			if (orig[i]^inner.inbox[0][i])>>b&1 == 1 {
				diffBits++
			}
		}
	}
	if diffBits == 0 || diffBits > 3 {
		t.Fatalf("corruption flipped %d bits, want 1..3", diffBits)
	}
	if st := j.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelayHoldsAndNeverLoses(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{Seed: 7, DelayRate: 1, DelayPolls: 3})
	const n = 20
	for i := 0; i < n; i++ {
		j.TrySend(0, frameN(i))
	}
	got := 0
	for poll := 0; poll < 200 && got < n; poll++ {
		if _, ok := j.Poll(); ok {
			got++
		}
	}
	if got != n {
		t.Fatalf("recovered %d/%d delayed frames", got, n)
	}
	if j.Held() != 0 {
		t.Fatalf("%d frames still held", j.Held())
	}
	if st := j.Stats(); st.Delayed != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelayIsDeterministic(t *testing.T) {
	run := func() []int {
		inner := &fakeTransport{}
		j, _ := Wrap(inner, Config{Seed: 99, DelayRate: 0.5, DelayPolls: 4})
		for i := 0; i < 10; i++ {
			j.TrySend(0, frameN(i))
		}
		var order []int
		for poll := 0; poll < 100 && len(order) < 10; poll++ {
			if frame, ok := j.Poll(); ok {
				order = append(order, int(frame[0]))
			}
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lost frames: %v / %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different order: %v vs %v", a, b)
		}
	}
}

func TestReorderSwapsFrames(t *testing.T) {
	inner := &fakeTransport{}
	j, _ := Wrap(inner, Config{Seed: 5, ReorderRate: 0.5})
	const n = 50
	for i := 0; i < n; i++ {
		j.TrySend(0, frameN(i))
	}
	var order []int
	for poll := 0; poll < 500 && len(order) < n; poll++ {
		if frame, ok := j.Poll(); ok {
			order = append(order, int(frame[0]))
		}
	}
	if len(order) != n {
		t.Fatalf("recovered %d/%d frames", len(order), n)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("ReorderRate=0.5 over 50 frames produced no inversion")
	}
	if st := j.Stats(); st.Reordered == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func newTestBuffer(t *testing.T) *commbuf.Buffer {
	t.Helper()
	buf, err := commbuf.New(commbuf.Config{
		Node: 0, MessageSize: 64, NumBuffers: 8, MaxEndpoints: 4, Padded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestCorruptorWildBufID(t *testing.T) {
	buf := newTestBuffer(t)
	ep, _ := buf.AllocEndpoint(commbuf.EndpointSend, 4)
	c := NewCorruptor(buf, 1)
	if !c.WildBufID(ep) {
		t.Fatal("release failed")
	}
	eng := buf.View(mem.ActorEngine)
	id, ok := ep.Queue().ProcessPeek(eng)
	if !ok || buf.ValidBufID(id) {
		t.Fatalf("wild id %d,%v is not out of range", id, ok)
	}
}

func TestCorruptorUnownedBuffer(t *testing.T) {
	buf := newTestBuffer(t)
	ep, _ := buf.AllocEndpoint(commbuf.EndpointSend, 4)
	c := NewCorruptor(buf, 1)
	if err := c.UnownedBuffer(ep); err != nil {
		t.Fatal(err)
	}
	eng := buf.View(mem.ActorEngine)
	id, ok := ep.Queue().ProcessPeek(eng)
	if !ok {
		t.Fatal("nothing released")
	}
	m, err := buf.MsgByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, state := m.EngineMeta(eng); state == commbuf.StateQueued {
		t.Fatal("buffer unexpectedly in queued state")
	}
}

func TestCorruptorScribbleRelease(t *testing.T) {
	buf := newTestBuffer(t)
	ep, _ := buf.AllocEndpoint(commbuf.EndpointSend, 4)
	c := NewCorruptor(buf, 1)
	c.ScribbleRelease(ep)
	eng := buf.View(mem.ActorEngine)
	process, release := ep.Queue().ProcessWords()
	if backlog := eng.Load(release) - eng.Load(process); backlog <= uint64(ep.Queue().Capacity()) {
		t.Fatalf("scribbled release pointer leaves a backlog of %d, which passes the invariant check", backlog)
	}
}

func TestCorruptorForgeDescriptor(t *testing.T) {
	buf := newTestBuffer(t)
	c := NewCorruptor(buf, 1)
	if err := c.ForgeDescriptor(2); err != nil {
		t.Fatal(err)
	}
	if err := c.ForgeDescriptor(99); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	eng := buf.View(mem.ActorEngine)
	if _, err := buf.OpenEndpoint(eng, 2); err == nil {
		t.Fatal("forged descriptor opened cleanly")
	}
}

func TestCorruptorScribbleQueueBase(t *testing.T) {
	buf := newTestBuffer(t)
	ep, _ := buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	c := NewCorruptor(buf, 1)
	eng := buf.View(mem.ActorEngine)
	cfgOff, _ := buf.EndpointCfgOffset(ep.Index())
	before := eng.Load(cfgOff)
	if err := c.ScribbleQueueBase(ep.Index()); err != nil {
		t.Fatal(err)
	}
	if after := eng.Load(cfgOff); after == before {
		t.Fatal("config word unchanged — engine would never re-open the slot")
	}
	if _, err := buf.OpenEndpoint(eng, ep.Index()); err == nil {
		t.Fatal("wild queue base opened cleanly")
	}
}
