package commbuf

import (
	"testing"

	"flipc/internal/cachesim"
	"flipc/internal/mem"
)

func TestAllocEndpoint(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	sep, err := b.AllocEndpoint(EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.AllocEndpoint(EndpointRecv, 0) // default depth
	if err != nil {
		t.Fatal(err)
	}
	if sep.Type() != EndpointSend || rep.Type() != EndpointRecv {
		t.Fatal("types wrong")
	}
	if sep.Index() == rep.Index() {
		t.Fatal("same slot allocated twice")
	}
	if sep.Addr() == rep.Addr() {
		t.Fatal("duplicate addresses")
	}
	if sep.Queue().Capacity() != 4 {
		t.Fatalf("depth = %d", sep.Queue().Capacity())
	}
	if rep.Queue().Capacity() != b.Config().DefaultQueueDepth {
		t.Fatalf("default depth = %d", rep.Queue().Capacity())
	}
	if b.ActiveEndpoints() != 2 {
		t.Fatalf("ActiveEndpoints = %d", b.ActiveEndpoints())
	}
	if b.EndpointByIndex(sep.Index()) != sep {
		t.Fatal("EndpointByIndex lookup failed")
	}
	if b.EndpointByIndex(-1) != nil || b.EndpointByIndex(999) != nil {
		t.Fatal("bad index lookup returned endpoint")
	}
	if sep.Buffer() != b {
		t.Fatal("Buffer() accessor wrong")
	}
	if sep.Drops() == nil {
		t.Fatal("Drops() nil")
	}
}

func TestAllocEndpointValidation(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	if _, err := b.AllocEndpoint(EndpointInvalid, 4); err == nil {
		t.Fatal("invalid type accepted")
	}
	if _, err := b.AllocEndpoint(EndpointSend, 3); err == nil {
		t.Fatal("non-power-of-two depth accepted")
	}
	if _, err := b.AllocEndpoint(EndpointSend, 1); err == nil {
		t.Fatal("depth 1 accepted")
	}
}

func TestEndpointSlotExhaustion(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxEndpoints = 2
	b := newBuffer(t, cfg)
	if _, err := b.AllocEndpoint(EndpointSend, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllocEndpoint(EndpointRecv, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllocEndpoint(EndpointSend, 4); err == nil {
		t.Fatal("third endpoint accepted with MaxEndpoints=2")
	}
}

func TestFreeEndpointBumpsGeneration(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	ep1, err := b.AllocEndpoint(EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	addr1 := ep1.Addr()
	if err := b.FreeEndpoint(ep1); err != nil {
		t.Fatal(err)
	}
	if err := b.FreeEndpoint(ep1); err == nil {
		t.Fatal("double free accepted")
	}
	ep2, err := b.AllocEndpoint(EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Index() != ep1.Index() {
		t.Fatalf("slot not reused: %d vs %d", ep2.Index(), ep1.Index())
	}
	if ep2.Addr() == addr1 {
		t.Fatal("address reused without generation bump")
	}
	if ep2.Addr().Gen() == addr1.Gen() {
		t.Fatal("generation not bumped")
	}
	if err := b.FreeEndpoint(nil); err == nil {
		t.Fatal("FreeEndpoint(nil) accepted")
	}
}

// opened reports whether OpenEndpoint found a sane active descriptor in
// slot i.
func opened(b *Buffer, eng mem.View, i int) bool {
	ep, err := b.OpenEndpoint(eng, i)
	return err == nil && ep.Type() != EndpointInvalid
}

// mustOpen is OpenEndpoint on a slot the test knows is active.
func mustOpen(t *testing.T, b *Buffer, eng mem.View, i int) Endpoint {
	t.Helper()
	ep, err := b.OpenEndpoint(eng, i)
	if err != nil || ep.Type() == EndpointInvalid {
		t.Fatalf("OpenEndpoint(%d) failed on active slot: %v", i, err)
	}
	return ep
}

func TestOpenEndpoint(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	eng := b.View(mem.ActorEngine)
	if opened(b, eng, 0) {
		t.Fatal("opened unallocated slot")
	}
	ep, err := b.AllocEndpoint(EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	info := mustOpen(t, b, eng, ep.Index())
	if info.Type() != EndpointRecv || info.Queue().Capacity() != 4 || info.Gen() != ep.Addr().Gen() ||
		info.Addr() != ep.Addr() || info.Index() != ep.Index() {
		t.Fatalf("engine descriptor %+v, app descriptor %+v", info, *ep)
	}
	if opened(b, eng, -1) {
		t.Fatal("negative index opened")
	}
	if opened(b, eng, b.Config().MaxEndpoints) {
		t.Fatal("out-of-range index opened")
	}
	if err := b.FreeEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	if opened(b, eng, ep.Index()) {
		t.Fatal("opened freed slot")
	}
}

// The engine-side and app-side handles must observe the same queue:
// release through the app handle, process through the engine handle.
func TestAppEngineHandleAgreement(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	ep, err := b.AllocEndpoint(EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	info := mustOpen(t, b, eng, ep.Index())
	if !ep.Queue().Release(app, 5) {
		t.Fatal("release failed")
	}
	v, ok := info.Queue().ProcessPeek(eng)
	if !ok || v != 5 {
		t.Fatalf("engine peek = %d,%v", v, ok)
	}
	info.Queue().AdvanceProcess(eng)
	got, ok := ep.Queue().Acquire(app)
	if !ok || got != 5 {
		t.Fatalf("app acquire = %d,%v", got, ok)
	}
	// Drop counters agree too.
	info.Drops().Incr(eng)
	if ep.Drops().Read(app) != 1 {
		t.Fatal("drop counter not shared")
	}
}

func TestWakeupFlag(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	ep, _ := b.AllocEndpoint(EndpointRecv, 4)
	info := mustOpen(t, b, eng, ep.Index())
	if ep.WakeupRequested(app) || info.WakeupRequested(eng) {
		t.Fatal("fresh wakeup flag set")
	}
	ep.SetWakeup(app, true)
	if !info.WakeupRequested(eng) {
		t.Fatal("engine does not see wakeup flag")
	}
	ep.SetWakeup(app, false)
	if info.WakeupRequested(eng) {
		t.Fatal("wakeup flag not cleared")
	}
}

func TestEndpointLock(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	app := b.View(mem.ActorApp)
	ep, _ := b.AllocEndpoint(EndpointSend, 4)
	ep.Lock(app)
	if ep.TryLock(app) {
		t.Fatal("TryLock succeeded on held lock")
	}
	ep.Unlock(app)
	if !ep.TryLock(app) {
		t.Fatal("TryLock failed on free lock")
	}
	ep.Unlock(app)
}

// In the tuned layout, a full send+receive round through endpoint
// structures must never have app and engine writing the same line.
func TestPaddedEndpointLineIsolation(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	model := cachesim.New(b.Arena().LineWords())
	b.Arena().SetTracer(model)
	app := b.View(mem.ActorApp)
	eng := b.View(mem.ActorEngine)
	ep, _ := b.AllocEndpoint(EndpointSend, 4)
	info := mustOpen(t, b, eng, ep.Index())

	before := model.Counts()
	for i := 0; i < 20; i++ {
		m, err := b.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		dst := ep.Addr() // self, irrelevant here
		if err := m.StageSend(app, dst, 8, 0); err != nil {
			t.Fatal(err)
		}
		if !ep.Queue().Release(app, uint64(m.ID())) {
			t.Fatal("release failed")
		}
		id, ok := info.Queue().ProcessPeek(eng)
		if !ok {
			t.Fatal("peek failed")
		}
		em, _ := b.MsgByID(id)
		em.EngineCompleteSend(eng)
		info.Queue().AdvanceProcess(eng)
		got, ok := ep.Queue().Acquire(app)
		if !ok || got != id {
			t.Fatal("acquire failed")
		}
		if _, err := m.Reclaim(app); err != nil {
			t.Fatal(err)
		}
		if err := b.FreeMsg(m); err != nil {
			t.Fatal(err)
		}
	}
	d := model.Counts().Sub(before)
	// The meta word is written by both sides (alternating ownership), so
	// invalidations on it are inherent; but the *pointer* lines must not
	// cross-invalidate. We check aggregate: padded invalidations should
	// be far below the unpadded case measured next.
	padded := d.Invalidations.Total()

	// Same workload, unpadded layout.
	cfg := defaultConfig()
	cfg.Padded = false
	b2 := newBuffer(t, cfg)
	model2 := cachesim.New(b2.Arena().LineWords())
	b2.Arena().SetTracer(model2)
	app2 := b2.View(mem.ActorApp)
	eng2 := b2.View(mem.ActorEngine)
	ep2, _ := b2.AllocEndpoint(EndpointSend, 4)
	info2 := mustOpen(t, b2, eng2, ep2.Index())
	before2 := model2.Counts()
	for i := 0; i < 20; i++ {
		m, err := b2.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StageSend(app2, ep2.Addr(), 8, 0); err != nil {
			t.Fatal(err)
		}
		if !ep2.Queue().Release(app2, uint64(m.ID())) {
			t.Fatal("release failed")
		}
		id, _ := info2.Queue().ProcessPeek(eng2)
		em, _ := b2.MsgByID(id)
		em.EngineCompleteSend(eng2)
		info2.Queue().AdvanceProcess(eng2)
		if _, ok := ep2.Queue().Acquire(app2); !ok {
			t.Fatal("acquire failed")
		}
		m.Reclaim(app2)
		b2.FreeMsg(m)
	}
	unpadded := model2.Counts().Sub(before2).Invalidations.Total()
	if padded >= unpadded {
		t.Fatalf("padded layout (%d invalidations) not better than unpadded (%d)", padded, unpadded)
	}
}

func TestOpenEndpointChecked(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	eng := b.View(mem.ActorEngine)

	// Unallocated slot: no endpoint (the zero descriptor), no fault.
	if info, err := b.OpenEndpoint(eng, 0); info != (Endpoint{}) || err != nil {
		t.Fatalf("unallocated slot: info=%+v err=%v", info, err)
	}
	// Out of range: same — it is simply not this buffer's slot.
	if info, err := b.OpenEndpoint(eng, -1); info != (Endpoint{}) || err != nil {
		t.Fatalf("out-of-range slot: info=%+v err=%v", info, err)
	}

	ep, err := b.AllocEndpoint(EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.OpenEndpoint(eng, ep.Index())
	if err != nil || info.Type() != EndpointSend {
		t.Fatalf("active slot: info=%+v err=%v", info, err)
	}

	// Freed slot: inactive again, not a fault.
	if err := b.FreeEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	if info, err := b.OpenEndpoint(eng, ep.Index()); info != (Endpoint{}) || err != nil {
		t.Fatalf("freed slot: info=%+v err=%v", info, err)
	}
}

func TestOpenEndpointCheckedForgedDescriptor(t *testing.T) {
	b := newBuffer(t, defaultConfig())
	eng := b.View(mem.ActorEngine)
	app := b.View(mem.ActorApp)

	// Forged config word: active state, garbage body.
	off, ok := b.EndpointCfgOffset(3)
	if !ok {
		t.Fatal("EndpointCfgOffset out of range")
	}
	app.Store(off, ForgedCfgWord())
	if info, err := b.OpenEndpoint(eng, 3); err == nil || info != (Endpoint{}) {
		t.Fatalf("forged config word accepted: %+v", info)
	}

	// A real endpoint whose queue-base word is scribbled out of the
	// arena: active state, corrupt descriptor body.
	ep, err := b.AllocEndpoint(EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff, _ := b.EndpointCfgOffset(ep.Index())
	qBase := app.Load(cfgOff + 1)
	app.Store(cfgOff+1, 1<<40) // queue base far outside the arena
	if _, err := b.OpenEndpoint(eng, ep.Index()); err == nil {
		t.Fatal("wild queue base accepted")
	}
	// A wild app-line word: the engine reads the wake flag through it.
	app.Store(cfgOff+1, qBase)
	app.Store(cfgOff+3, 1<<64-1) // -1 as a word offset
	if _, err := b.OpenEndpoint(eng, ep.Index()); err == nil {
		t.Fatal("app line below the arena accepted")
	}
}
