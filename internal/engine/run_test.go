package engine

// The receive run: frames for one endpoint share one load of its
// pointers and one store of process, and the run closes before anything
// could strand or misplace what it filled.

import (
	"fmt"
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

// scriptTransport hands the engine a list of frames, one per Poll. It
// calls before(i) just before it returns frame i, and after(i) when the
// engine polls again, having handled frame i.
type scriptTransport struct {
	frames        [][]byte
	next          int
	before, after func(i int)
}

func (s *scriptTransport) TrySend(wire.NodeID, []byte) bool { return false }
func (s *scriptTransport) LocalNode() wire.NodeID           { return 0 }
func (s *scriptTransport) Poll() ([]byte, bool) {
	if s.next > 0 && s.after != nil {
		s.after(s.next - 1)
	}
	if s.next == len(s.frames) {
		return nil, false
	}
	if s.before != nil {
		s.before(s.next)
	}
	s.next++
	return s.frames[s.next-1], true
}

// runRig is one node whose engine reads scripted frames.
type runRig struct {
	buf *commbuf.Buffer
	app mem.View
	tr  *scriptTransport
	eng *Engine
}

func newRunRig(t *testing.T, checks bool) *runRig {
	t.Helper()
	buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 32, MaxEndpoints: 4, Padded: true})
	if err != nil {
		t.Fatal(err)
	}
	r := &runRig{buf: buf, app: buf.View(mem.ActorApp), tr: &scriptTransport{}}
	if r.eng, err = New(buf, r.tr, Config{ValidityChecks: checks}); err != nil {
		t.Fatal(err)
	}
	return r
}

// frame scripts one arrival for ep carrying payload.
func (r *runRig) frame(t *testing.T, ep *commbuf.Endpoint, payload string) {
	t.Helper()
	f := make([]byte, 64)
	if err := wire.Encode(&wire.Packet{Dst: ep.Addr(), Size: uint16(len(payload)), Payload: []byte(payload)}, f); err != nil {
		t.Fatal(err)
	}
	r.tr.frames = append(r.tr.frames, f)
}

// acquire takes every delivered message off ep, in order.
func (r *runRig) acquire(t *testing.T, ep *commbuf.Endpoint) []string {
	t.Helper()
	var got []string
	for {
		id, ok := ep.Queue().Acquire(r.app)
		if !ok {
			return got
		}
		m, err := r.buf.MsgByID(id)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(m.Payload()[:m.Size(r.app)]))
	}
}

// accounted reports whether every frame the engine took from its
// transport is counted exactly once.
func accounted(s Stats) bool {
	return s.Received == s.Delivered+s.RecvDrops+s.AddrDrops+s.BadFrames+s.ChecksumDrops+s.QuarantineDrops
}

func conserved(t *testing.T, s Stats) {
	t.Helper()
	if !accounted(s) {
		t.Errorf("received %d frames, accounted %+v", s.Received, s)
	}
}

// TestRecvRunStoresProcessOnce: eight frames for one endpoint in one
// pass load its release pointer once and store its process pointer
// once, checked or not.
func TestRecvRunStoresProcessOnce(t *testing.T) {
	const run = 8
	for _, checks := range []bool{false, true} {
		r := newRunRig(t, checks)
		if q := r.eng.Config().RecvQuantum; q < run {
			t.Fatalf("RecvQuantum %d below the run of %d", q, run)
		}
		ep, err := r.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := 0; i < run; i++ {
			post(t, &testNode{buf: r.buf, app: r.app}, ep)
			want = append(want, fmt.Sprint("m", i))
			r.frame(t, ep, want[i])
		}
		process, release := ep.Queue().ProcessWords()
		c := newWordCounts()
		r.buf.Arena().SetTracer(c)
		r.eng.Poll()
		r.buf.Arena().SetTracer(nil)
		if c.stores[process] != 1 || c.loads[release] != 1 {
			t.Errorf("checks %v: %d stores to process and %d loads of release for a run of %d, want 1 and 1",
				checks, c.stores[process], c.loads[release], run)
		}
		if got := r.acquire(t, ep); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("checks %v: acquired %q, want %q", checks, got, want)
		}
		conserved(t, r.eng.Stats())
	}
}

// TestRecvRunAlternatingEndpoints: frames that alternate between two
// endpoints close a run at every change of destination, and each
// endpoint gets its own frames in order.
func TestRecvRunAlternatingEndpoints(t *testing.T) {
	r := newRunRig(t, true)
	n := &testNode{buf: r.buf, app: r.app}
	var eps [2]*commbuf.Endpoint
	var want [2][]string
	for k := range eps {
		ep, err := r.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
		if err != nil {
			t.Fatal(err)
		}
		eps[k] = ep
		for i := 0; i < 4; i++ {
			post(t, n, ep)
		}
	}
	for i := 0; i < 8; i++ {
		want[i%2] = append(want[i%2], fmt.Sprint("m", i))
		r.frame(t, eps[i%2], fmt.Sprint("m", i))
	}
	r.eng.Poll()
	for k, ep := range eps {
		if got := r.acquire(t, ep); fmt.Sprint(got) != fmt.Sprint(want[k]) {
			t.Errorf("endpoint %d acquired %q, want %q", k, got, want[k])
		}
	}
	if s := r.eng.Stats(); s.Delivered != 8 {
		t.Errorf("delivered %d of 8", s.Delivered)
	}
	conserved(t, r.eng.Stats())
}

// TestRecvRunHandsOverBeforeFault: a posted slot scribbled while the
// run is open quarantines the endpoint when its frame arrives, and the
// frames the run filled before it are handed over first.
func TestRecvRunHandsOverBeforeFault(t *testing.T) {
	r := newRunRig(t, true)
	ep, err := r.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		post(t, &testNode{buf: r.buf, app: r.app}, ep)
		r.frame(t, ep, fmt.Sprint("m", i))
	}
	const bad = 3
	r.tr.before = func(i int) {
		if i == 2 {
			// The hostile application rewrites a slot the run loaded
			// release past: a buffer id out of range. Padded, the slots
			// start three lines after release, one line after another.
			process, release := ep.Queue().ProcessWords()
			r.buf.Arena().Store(mem.ActorApp, release+3*(process-release)+bad, 1<<40)
		}
	}
	r.eng.Poll()
	if got := r.acquire(t, ep); fmt.Sprint(got) != "[m0 m1 m2]" {
		t.Errorf("acquired %q before the fault, want [m0 m1 m2]", got)
	}
	s := r.eng.Stats()
	if s.Delivered != bad || s.QuarantineDrops != 8-bad || s.EndpointFaults[FaultBadBufID] != 1 {
		t.Errorf("delivered %d, quarantine drops %d, bad-id faults %d; want %d, %d, 1",
			s.Delivered, s.QuarantineDrops, s.EndpointFaults[FaultBadBufID], bad, 8-bad)
	}
	conserved(t, s)
}

// TestRecvRunClosesBeforeRefresh: an application that frees and
// reallocates the endpoint partway through a pass gets the frames
// filled before into the old descriptor. Stale frames leave the new
// descriptor's process pointer untouched, and frames for the new
// address fill the new descriptor's buffers in a run of its own.
func TestRecvRunClosesBeforeRefresh(t *testing.T) {
	r := newRunRig(t, true)
	n := &testNode{buf: r.buf, app: r.app}
	old, err := r.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		post(t, n, old)
		r.frame(t, old, fmt.Sprint("m", i))
	}
	var fresh *commbuf.Endpoint
	var process int
	c := newWordCounts()
	r.tr.before = func(i int) {
		if i != 3 {
			return
		}
		if err := r.buf.FreeEndpoint(old); err != nil {
			t.Fatal(err)
		}
		if fresh, err = r.buf.AllocEndpoint(commbuf.EndpointRecv, 8); err != nil {
			t.Fatal(err)
		}
		if fresh.Index() != old.Index() {
			t.Fatalf("reallocated into slot %d, not %d", fresh.Index(), old.Index())
		}
		post(t, n, fresh)
		post(t, n, fresh)
		r.frame(t, fresh, "n5")
		r.frame(t, fresh, "n6")
		process, _ = fresh.Queue().ProcessWords()
		r.buf.Arena().SetTracer(c)
	}
	r.tr.after = func(i int) {
		if i == 4 && c.stores[process] != 0 {
			t.Errorf("stale frames: %d engine stores reached the new descriptor's process pointer", c.stores[process])
		}
	}
	r.eng.Poll()
	r.buf.Arena().SetTracer(nil)
	if fresh == nil {
		t.Fatal("the endpoint was never reallocated")
	}
	if got := r.acquire(t, old); fmt.Sprint(got) != "[m0 m1 m2]" {
		t.Errorf("old descriptor handed over %q, want [m0 m1 m2]", got)
	}
	if got := r.acquire(t, fresh); fmt.Sprint(got) != "[n5 n6]" {
		t.Errorf("new descriptor handed over %q, want [n5 n6]", got)
	}
	if s := r.eng.Stats(); s.Delivered != 5 || s.AddrDrops != 2 {
		t.Errorf("delivered %d, stale-generation drops %d; want 5 and 2", s.Delivered, s.AddrDrops)
	}
	conserved(t, r.eng.Stats())
}

// TestRecvRunWildBacklog: a release pointer scribbled wild is seen when
// the run reloads it. Checked, the endpoint is quarantined before the
// frame touches a buffer; unchecked, the head buffer is filled and the
// endpoint quarantined without process moving past it. Either way the
// frames delivered before are handed over.
func TestRecvRunWildBacklog(t *testing.T) {
	for _, checks := range []bool{false, true} {
		r := newRunRig(t, checks)
		n := &testNode{buf: r.buf, app: r.app}
		ep, err := r.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
		if err != nil {
			t.Fatal(err)
		}
		post(t, n, ep)
		post(t, n, ep)
		for i := 0; i < 3; i++ {
			r.frame(t, ep, fmt.Sprint("m", i))
		}
		var head *commbuf.Msg
		r.tr.before = func(i int) {
			if i == 2 { // the run's two buffers are spent: it reloads release
				head = post(t, n, ep)
				_, release := ep.Queue().ProcessWords()
				r.buf.Arena().Store(mem.ActorApp, release, 1<<40)
			}
		}
		r.eng.Poll()
		if got := r.acquire(t, ep); fmt.Sprint(got) != "[m0 m1]" {
			t.Errorf("checks %v: acquired %q, want [m0 m1]", checks, got)
		}
		filled := head.Size(r.app) != 0
		if s := r.eng.Stats(); s.Delivered != 2 || s.QuarantineDrops != 1 || s.EndpointFaults[FaultQueueInvariant] != 1 || filled == checks {
			t.Errorf("checks %v: delivered %d, quarantine drops %d, invariant faults %d, head filled %v",
				checks, s.Delivered, s.QuarantineDrops, s.EndpointFaults[FaultQueueInvariant], filled)
		}
		conserved(t, r.eng.Stats())
	}
}
