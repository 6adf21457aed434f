package engine

// The send scan against its predecessor, and the word count of an idle
// pass.
//
// The engine used to walk every descriptor slot on every pass
// (sendOrder below, verbatim from commit 862594a). It now sweeps the
// config words for changes, keeps the healthy send endpoints in a list
// in scan order, and tests each for queued work with two loads. The
// order in which endpoints are served — priority classes, the
// round-robin rotation, the ReservedQuantum cap — is what applications
// see of that, so the old scan stays here as the reference the new one
// is property-tested against.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

// refScan is the parent's send pass, driving an Engine whose own
// pollSend never runs: it borrows the engine's slot caches, cursor and
// stale flag, and brings the two scratch orders the engine no longer has.
type refScan struct {
	order, prioOrder []int
}

// sendOrder is the parent's (*Engine).sendOrder.
func (r *refScan) sendOrder(e *Engine) []int {
	n := len(e.eps)
	switch e.cfg.Policy {
	case PolicyPriority:
		for i := 0; i < n; i++ {
			e.endpoint(i)
		}
		if e.orderStale {
			r.prioOrder = r.prioOrder[:0]
			for i := 0; i < n; i++ {
				if e.eps[i].ep.Type() == commbuf.EndpointSend &&
					e.eps[i].fault == FaultNone {
					r.prioOrder = append(r.prioOrder, i)
				}
			}
			sort.SliceStable(r.prioOrder, func(a, b int) bool {
				return e.eps[r.prioOrder[a]].ep.Priority() > e.eps[r.prioOrder[b]].ep.Priority()
			})
			e.orderStale = false
		}
		return r.prioOrder
	default:
		if cap(r.order) < n {
			r.order = make([]int, n)
		}
		r.order = r.order[:n]
		for k := 0; k < n; k++ {
			r.order[k] = (e.scan + k) % n
		}
		e.scan = (e.scan + 1) % n
		return r.order
	}
}

// refPeek is the parent's (*Engine).peek: the queue's checked or
// unchecked peek, loading both pointers for every message.
func refPeek(e *Engine, info *commbuf.Endpoint) (uint64, bool, error) {
	process, release := info.Queue().ProcessWords()
	proc, rel := e.view.Load(process), e.view.Load(release)
	if proc == rel {
		return 0, false, nil
	}
	if e.cfg.ValidityChecks && rel-proc > uint64(info.Queue().Capacity()) {
		return 0, false, fmt.Errorf("backlog %d above capacity", rel-proc)
	}
	return info.Queue().Slot(e.view, proc), true, nil
}

// refAdvance is the queue's checked advance the parent called after
// each message: both pointers loaded again, one store of process.
func refAdvance(e *Engine, info *commbuf.Endpoint) error {
	process, release := info.Queue().ProcessWords()
	proc, rel := e.view.Load(process), e.view.Load(release)
	if pending := rel - proc; pending == 0 || pending > uint64(info.Queue().Capacity()) {
		return fmt.Errorf("no processable buffer: process=%d release=%d", proc, rel)
	}
	e.view.Store(process, proc+1)
	return nil
}

// poll is the parent's Poll (metrics off) with its pollSend loop.
//
// One deliberate difference, the trailing refresh: under round-robin the
// parent looked at a slot's config word when its scan reached the slot,
// so a pass that spent its quantum early left the rest unread until a
// later pass. The sweep reads every slot in every pass — a forged word
// or a re-allocation is noticed no later than before, sometimes a pass
// sooner. Which endpoints are served, and in what order, cannot differ
// (an unread slot was also an unserved one); the pass in which a
// quarantine or recovery is counted can, so the reference reads the
// slots it skipped before the pass ends.
func (r *refScan) poll(e *Engine) bool {
	e.stats.Polls++
	work := e.pollReceive()
	budget := e.cfg.SendQuantum
	lowLimit := e.cfg.SendQuantum - e.cfg.ReservedQuantum
	lowSpent := 0
	for _, i := range r.sendOrder(e) {
		if budget <= 0 {
			break
		}
		info := e.endpoint(i)
		if info.Type() != commbuf.EndpointSend || e.eps[i].fault != FaultNone {
			continue
		}
		low := e.cfg.ReservedQuantum > 0 && info.Priority() < e.cfg.ReservePriority
		if low && lowSpent >= lowLimit {
			continue
		}
		for budget > 0 {
			if low && lowSpent >= lowLimit {
				break
			}
			id, ok, err := refPeek(e, info)
			if err != nil {
				e.quarantine(i, FaultQueueInvariant)
				work = true
				break
			}
			if !ok {
				break
			}
			verdict, kind := e.transmit(info, id)
			if verdict == txFault {
				e.quarantine(i, kind)
				work = true
				break
			}
			if verdict == txBusy {
				break
			}
			work = true
			if err := refAdvance(e, info); err != nil {
				e.quarantine(i, FaultQueueInvariant)
				break
			}
			budget--
			if low {
				lowSpent++
			}
		}
	}
	for i := range e.eps {
		e.endpoint(i)
	}
	return work
}

// scanWorld is one node under the equivalence test: a buffer, an engine
// over a recording transport, and the application's endpoint handles.
type scanWorld struct {
	buf  *commbuf.Buffer
	tr   *flakyTransport
	eng  *Engine
	app  mem.View
	eps  []*commbuf.Endpoint // by slot, nil when free
	sent int                 // payload stamp
}

const scanSlots = 12

func newScanWorld(t *testing.T, cfg Config) *scanWorld {
	t.Helper()
	// A deep default queue sizes the arena generously: freed endpoints'
	// storage is never reclaimed, and the sequences re-allocate a lot.
	buf, err := commbuf.New(commbuf.Config{
		Node: 0, MessageSize: 64, NumBuffers: 256, MaxEndpoints: scanSlots,
		DefaultQueueDepth: 256, Padded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &flakyTransport{node: 0}
	eng, err := New(buf, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &scanWorld{buf: buf, tr: tr, eng: eng, app: buf.View(mem.ActorApp), eps: make([]*commbuf.Endpoint, scanSlots)}
}

// scanOp is one application (or hostile-application) action, decided
// once and applied to both worlds.
type scanOp struct {
	kind     int
	slot     int
	prio     uint8
	recv     bool
	n        int
	scribble uint64
}

const (
	opAlloc = iota
	opFree
	opRealloc
	opForge
	opUnforge
	opScribble
	opSend
	opBusy
	numScanOps
)

func (w *scanWorld) alloc(prio uint8, recv bool) {
	typ := commbuf.EndpointSend
	if recv {
		typ = commbuf.EndpointRecv
	}
	if ep, err := w.buf.AllocEndpointPrio(typ, 8, prio); err == nil {
		w.eps[ep.Index()] = ep
	}
}

func (w *scanWorld) apply(op scanOp) {
	ep := w.eps[op.slot]
	off, _ := w.buf.EndpointCfgOffset(op.slot)
	switch op.kind {
	case opAlloc:
		w.alloc(op.prio, op.recv)
	case opFree, opRealloc:
		if ep == nil {
			return
		}
		if w.buf.FreeEndpoint(ep) == nil {
			w.eps[op.slot] = nil
		}
		if op.kind == opRealloc {
			w.alloc(op.prio, op.recv) // first free slot: usually the same one, generation bumped
		}
	case opForge:
		w.app.Store(off, commbuf.ForgedCfgWord())
	case opUnforge:
		// A forged slot the library still thinks is free stays forged
		// until something rewrites the word; zero is "never allocated".
		if ep == nil {
			w.app.Store(off, 0)
		}
	case opScribble:
		if ep != nil && ep.Type() == commbuf.EndpointSend {
			_, rel := ep.Queue().ProcessWords()
			w.app.Store(rel, op.scribble)
		}
	case opSend:
		if ep == nil || ep.Type() != commbuf.EndpointSend {
			return
		}
		dst, _ := wire.MakeAddr(1, uint16(op.slot), 1)
		for k := 0; k < op.n; k++ {
			m, err := w.buf.AllocMsg()
			if err != nil {
				return
			}
			w.sent++
			payload := fmt.Sprintf("slot %d msg %d", op.slot, w.sent)
			copy(m.Payload(), payload)
			if m.StageSend(w.app, dst, len(payload), 0) != nil || !ep.Queue().Release(w.app, uint64(m.ID())) {
				m.Unstage(w.app)
				w.buf.FreeMsg(m)
				return
			}
		}
	case opBusy:
		w.tr.mode = op.n // modeOK, modeBusy or modeDown for the coming passes
	}
}

// randomScanOp draws the next action: mostly sends, so the queues stay
// busy enough to exhaust the quantum, the rest spread over the
// descriptor and queue mutations.
func randomScanOp(rng *rand.Rand) scanOp {
	op := scanOp{
		kind: opSend, slot: rng.Intn(scanSlots), prio: uint8(rng.Intn(4)),
		recv: rng.Intn(4) == 0, n: 1 + rng.Intn(6), scribble: rng.Uint64() >> uint(rng.Intn(64)),
	}
	if rng.Intn(6) == 0 {
		op.kind = rng.Intn(numScanOps)
	}
	if op.kind == opBusy {
		op.n = modeOK
		if rng.Intn(4) == 0 {
			op.n = modeBusy + rng.Intn(2)
		}
	}
	return op
}

// reclaim takes finished send buffers back so the pool never runs dry.
func (w *scanWorld) reclaim() {
	for _, ep := range w.eps {
		if ep == nil || ep.Type() != commbuf.EndpointSend {
			continue
		}
		for id, ok := ep.Queue().Acquire(w.app); ok; id, ok = ep.Queue().Acquire(w.app) {
			if m, err := w.buf.MsgByID(id); err == nil {
				w.buf.FreeMsg(m)
			}
		}
	}
}

// TestSendScanMatchesParentOrder drives two identical worlds through
// random allocate / free / re-allocate / priority / forged-word /
// scribbled-queue / busy-wire sequences, one polled by the engine and
// one by the parent's scan, and requires after every pass the same
// frames on the wire in the same order, the same Stats and the same
// quarantine list.
func TestSendScanMatchesParentOrder(t *testing.T) {
	configs := []Config{
		{Policy: PolicyRoundRobin},
		{Policy: PolicyRoundRobin, ValidityChecks: true, SendQuantum: 5},
		{Policy: PolicyRoundRobin, ValidityChecks: true, ReservedQuantum: 3, ReservePriority: 2},
		{Policy: PolicyPriority, ValidityChecks: true},
		{Policy: PolicyPriority, SendQuantum: 5},
		{Policy: PolicyPriority, ValidityChecks: true, ReservedQuantum: 3, ReservePriority: 2},
		{Policy: PolicyPriority, ReservedQuantum: 6, ReservePriority: 3},
	}
	for ci, cfg := range configs {
		full := 0 // passes that spent the whole send quantum
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			got, want := newScanWorld(t, cfg), newScanWorld(t, cfg)
			var ref refScan
			for i := 0; i < scanSlots*2/3; i++ {
				op := scanOp{kind: opAlloc, prio: uint8(rng.Intn(4)), recv: i%5 == 4}
				got.apply(op)
				want.apply(op)
			}
			for pass := 0; pass < 400; pass++ {
				for n := rng.Intn(8); n > 0; n-- {
					op := randomScanOp(rng)
					got.apply(op)
					want.apply(op)
				}
				gw, ww := got.eng.Poll(), ref.poll(want.eng)
				at := fmt.Sprintf("config %d seed %d pass %d", ci, seed, pass)
				if gw != ww {
					t.Fatalf("%s: Poll = %v, parent scan = %v", at, gw, ww)
				}
				if len(got.tr.frames) != len(want.tr.frames) {
					t.Fatalf("%s: %d frames on the wire, parent scan %d", at, len(got.tr.frames), len(want.tr.frames))
				}
				for i := range got.tr.frames {
					if !bytes.Equal(got.tr.frames[i], want.tr.frames[i]) {
						t.Fatalf("%s: frame %d differs: visit order changed\n got %q\nwant %q",
							at, i, got.tr.frames[i], want.tr.frames[i])
					}
				}
				if gs, ws := got.eng.Stats(), want.eng.Stats(); gs != ws {
					t.Fatalf("%s: stats differ\n got %+v\nwant %+v", at, gs, ws)
				}
				if gq, wq := got.eng.Quarantined(), want.eng.Quarantined(); !reflect.DeepEqual(gq, wq) {
					t.Fatalf("%s: quarantine list differs\n got %+v\nwant %+v", at, gq, wq)
				}
				if len(got.tr.frames) == got.eng.Config().SendQuantum {
					full++
				}
				got.tr.frames, want.tr.frames = got.tr.frames[:0], want.tr.frames[:0]
				got.reclaim()
				want.reclaim()
			}
			st := got.eng.Stats()
			if st.Quarantines == 0 || st.QuarantineRecoveries == 0 {
				t.Fatalf("config %d seed %d quarantined or recovered nothing: %+v", ci, seed, st)
			}
		}
		if full < 50 {
			t.Fatalf("config %d: only %d passes spent the whole send quantum", ci, full)
		}
	}
}

// countTracer counts the engine's traced loads and stores.
type countTracer struct{ loads, stores int }

func (c *countTracer) OnLoad(a mem.Actor, w int) {
	if a == mem.ActorEngine {
		c.loads++
	}
}
func (c *countTracer) OnStore(a mem.Actor, w int) {
	if a == mem.ActorEngine {
		c.stores++
	}
}
func (c *countTracer) OnBusLock(a mem.Actor, w int) { c.stores++ }

// TestIdlePassWordCount pins what a pass that finds no work touches in
// the communication buffer: one config word per descriptor slot and the
// process and release pointers of every active send endpoint — loads
// only, no store. Receive endpoints, freed slots and empty slots cost
// their config-word load and nothing else.
func TestIdlePassWordCount(t *testing.T) {
	shapes := []struct{ slots, send, recv int }{{4, 1, 0}, {32, 17, 3}, {64, 32, 32}}
	for _, policy := range []SendPolicy{PolicyRoundRobin, PolicyPriority} {
		for _, sh := range shapes {
			buf, err := commbuf.New(commbuf.Config{
				Node: 0, MessageSize: 64, NumBuffers: 8, MaxEndpoints: sh.slots, Padded: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sh.send+sh.recv; i++ {
				typ := commbuf.EndpointSend
				if i >= sh.send {
					typ = commbuf.EndpointRecv
				}
				if _, err := buf.AllocEndpointPrio(typ, 0, uint8(i%3)); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := New(buf, &flakyTransport{node: 0}, Config{Policy: policy, ValidityChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			eng.Poll() // builds the slot caches and the active list
			if got := len(eng.active); got != sh.send {
				t.Fatalf("%d slots: %d active send endpoints, want %d", sh.slots, got, sh.send)
			}
			var c countTracer
			buf.Arena().SetTracer(&c)
			const passes = 10
			for p := 0; p < passes; p++ {
				if eng.Poll() {
					t.Fatal("idle pass reported work")
				}
			}
			buf.Arena().SetTracer(nil)
			if want := passes * (sh.slots + 2*sh.send); c.loads != want || c.stores != 0 {
				t.Errorf("policy %d, %d slots, %d send + %d recv: %d loads and %d stores in %d idle passes, want %d (slots + 2·activeSend a pass) and 0",
					policy, sh.slots, sh.send, sh.recv, c.loads, c.stores, passes, want)
			}
		}
	}
}

// wordCounts counts the engine's loads and stores of each arena word.
type wordCounts struct{ loads, stores map[int]int }

func newWordCounts() *wordCounts {
	return &wordCounts{loads: map[int]int{}, stores: map[int]int{}}
}
func (c *wordCounts) OnLoad(a mem.Actor, w int) {
	if a == mem.ActorEngine {
		c.loads[w]++
	}
}
func (c *wordCounts) OnStore(a mem.Actor, w int) {
	if a == mem.ActorEngine {
		c.stores[w]++
	}
}
func (c *wordCounts) OnBusLock(mem.Actor, int) {}

// TestSendRunStoresProcessOnce: a pass that sends a run of queued
// messages from one endpoint hands them all back with one store of the
// endpoint's process pointer, checked or not.
func TestSendRunStoresProcessOnce(t *testing.T) {
	const run = 8
	for _, checks := range []bool{false, true} {
		buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 16, MaxEndpoints: 2, Padded: true})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := buf.AllocEndpoint(commbuf.EndpointSend, 8)
		if err != nil {
			t.Fatal(err)
		}
		tr := &flakyTransport{node: 0}
		eng, err := New(buf, tr, Config{ValidityChecks: checks})
		if err != nil {
			t.Fatal(err)
		}
		if q := eng.Config().SendQuantum; q < run {
			t.Fatalf("SendQuantum %d below the run of %d", q, run)
		}
		app := buf.View(mem.ActorApp)
		dst, _ := wire.MakeAddr(1, 0, 1)
		for i := 0; i < run; i++ {
			m, err := buf.AllocMsg()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.StageSend(app, dst, 1, 0); err != nil || !ep.Queue().Release(app, uint64(m.ID())) {
				t.Fatalf("queueing message %d: %v", i, err)
			}
		}
		process, _ := ep.Queue().ProcessWords()
		c := newWordCounts()
		buf.Arena().SetTracer(c)
		eng.Poll()
		buf.Arena().SetTracer(nil)
		if len(tr.frames) != run || c.stores[process] != 1 {
			t.Errorf("checks %v: %d frames sent with %d stores to process, want %d and 1", checks, len(tr.frames), c.stores[process], run)
		}
		if toProcess, toAcquire := ep.Queue().Depths(app); toProcess != 0 || toAcquire != run {
			t.Errorf("checks %v: %d to process, %d to acquire; want 0 and %d", checks, toProcess, toAcquire, run)
		}
	}
}
