package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flipc/internal/commbuf"
	"flipc/internal/interconnect"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

// The protection claim under attack: with validity checks configured,
// no amount of communication-buffer corruption by a hostile application
// may crash ("hang the controller") or wedge the engine. We feed the
// engine random garbage through every application-writable surface and
// then verify a well-behaved endpoint still gets service.

func TestFuzzCorruptQueueSlots(t *testing.T) {
	prop := func(slots []uint64, seed int64) bool {
		a, b := newPair2(t)
		evil, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for _, s := range slots {
			if rng.Intn(2) == 0 {
				s %= 16 // sometimes in-range IDs (wrong states)
			}
			evil.Queue().Release(a.app, s)
			a.eng.Poll()
		}
		// The engine survived; now a good message must still flow.
		return goodPathWorks(t, a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzCorruptMetaWords(t *testing.T) {
	prop := func(metas []uint64) bool {
		a, b := newPair2(t)
		evil, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
		if err != nil {
			return false
		}
		for i, raw := range metas {
			if i >= 8 {
				break
			}
			m, err := a.buf.AllocMsg()
			if err != nil {
				break
			}
			// Write a raw meta word directly — a hostile app scribbling
			// on its own buffer's control word.
			a.buf.Arena().Store(mem.ActorApp, metaOffset(a.buf, m), raw)
			evil.Queue().Release(a.app, uint64(m.ID()))
			a.eng.Poll()
			a.eng.Poll()
		}
		return goodPathWorks(t, a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzRandomFramesFromWire(t *testing.T) {
	prop := func(frames [][]byte) bool {
		fabric := interconnect.NewFabric(64)
		buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64})
		if err != nil {
			return false
		}
		tr, err := fabric.Attach(0)
		if err != nil {
			return false
		}
		injector, err := fabric.Attach(1)
		if err != nil {
			return false
		}
		eng, err := New(buf, tr, Config{ValidityChecks: true})
		if err != nil {
			return false
		}
		for _, f := range frames {
			frame := make([]byte, 64)
			copy(frame, f)
			injector.TrySend(0, frame)
			eng.Poll()
		}
		// Engine alive and sane: a posted receive buffer still works.
		app := buf.View(mem.ActorApp)
		rep, err := buf.AllocEndpoint(commbuf.EndpointRecv, 4)
		if err != nil {
			return false
		}
		m, err := buf.AllocMsg()
		if err != nil {
			return false
		}
		if err := m.StageRecv(app); err != nil {
			return false
		}
		if !rep.Queue().Release(app, uint64(m.ID())) {
			return false
		}
		good := &wire.Packet{Dst: rep.Addr(), Size: 2, Payload: []byte("ok")}
		frame := make([]byte, 64)
		if err := wire.Encode(good, frame); err != nil {
			return false
		}
		injector.TrySend(0, frame)
		for i := 0; i < 10; i++ {
			eng.Poll()
		}
		_, delivered := rep.Queue().Acquire(app)
		return delivered
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzCorruptQueuePointers scribbles random values over an
// endpoint queue's application-writable control words — release,
// acquire, and the slot array — between engine passes. The engine must
// quarantine (or simply ignore) the wreckage without panicking, and a
// fresh endpoint must still get service.
func TestFuzzCorruptQueuePointers(t *testing.T) {
	prop := func(vals []uint64) bool {
		a, b := newPair2(t)
		evil, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
		if err != nil {
			return false
		}
		// The queue lays out release, process, acquire, then the slots,
		// one stride apart: the words the application side writes.
		procOff, relOff := evil.Queue().ProcessWords()
		stride := procOff - relOff
		acqOff, slotBase := relOff+2*stride, relOff+3*stride
		offs := []int{relOff, acqOff, slotBase, slotBase + 3}
		for i, v := range vals {
			if i >= 16 {
				break
			}
			a.app.Store(offs[i%len(offs)], v)
			a.eng.Poll()
		}
		return goodPathWorks(t, a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzForgedConfigWords overwrites endpoint descriptor config words
// with random garbage — free slots that suddenly claim to be active
// endpoints, active slots whose type/depth/generation mutate under the
// engine. Survival plus continued service is the property; the engine
// may quarantine any slot it finds insane.
func TestFuzzForgedConfigWords(t *testing.T) {
	prop := func(words []uint64, slots []uint8) bool {
		a, b := newPair2(t)
		n := len(words)
		if len(slots) < n {
			n = len(slots)
		}
		for i := 0; i < n && i < 16; i++ {
			off, ok := a.buf.EndpointCfgOffset(int(slots[i]) % 8)
			if !ok {
				continue
			}
			a.app.Store(off, words[i])
			a.eng.Poll()
			a.eng.Poll()
		}
		return goodPathWorks(t, a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzWireChecksum feeds a checksumming engine well-formed
// checksummed frames with random bits flipped. Whatever the flip hits —
// payload (checksum failure), header fields (bad frame or stale
// address), or the checksum flag itself (the documented flag-gate blind
// spot, a spurious delivery) — every arrival must land in exactly one
// accounting category and the engine must keep running.
func TestFuzzWireChecksum(t *testing.T) {
	prop := func(payloads [][]byte, seed int64) bool {
		fabric := interconnect.NewFabric(64)
		buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64})
		if err != nil {
			return false
		}
		tr, err := fabric.Attach(0)
		if err != nil {
			return false
		}
		injector, err := fabric.Attach(1)
		if err != nil {
			return false
		}
		eng, err := New(buf, tr, Config{ValidityChecks: true, Checksum: true})
		if err != nil {
			return false
		}
		app := buf.View(mem.ActorApp)
		rep, err := buf.AllocEndpoint(commbuf.EndpointRecv, 16)
		if err != nil {
			return false
		}
		post := func(ep *commbuf.Endpoint) bool {
			m, err := buf.AllocMsg()
			if err != nil {
				return false
			}
			if err := m.StageRecv(app); err != nil {
				return false
			}
			return ep.Queue().Release(app, uint64(m.ID()))
		}
		for i := 0; i < 8; i++ {
			if !post(rep) {
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, p := range payloads {
			if len(p) > 40 {
				p = p[:40]
			}
			pkt := &wire.Packet{Dst: rep.Addr(), Size: uint16(len(p)), Payload: p, Checksum: true}
			frame := make([]byte, 64)
			if err := wire.Encode(pkt, frame); err != nil {
				continue
			}
			for b := 1 + rng.Intn(3); b > 0; b-- {
				bit := rng.Intn(len(frame) * 8)
				frame[bit/8] ^= 1 << (bit % 8)
			}
			injector.TrySend(0, frame)
			eng.Poll()
		}
		st := eng.Stats()
		if !accounted(st) {
			return false
		}
		// An intact checksummed frame must still get through.
		rep2, err := buf.AllocEndpoint(commbuf.EndpointRecv, 4)
		if err != nil {
			return false
		}
		if !post(rep2) {
			return false
		}
		good := &wire.Packet{Dst: rep2.Addr(), Size: 2, Payload: []byte("ok"), Checksum: true}
		frame := make([]byte, 64)
		if err := wire.Encode(good, frame); err != nil {
			return false
		}
		injector.TrySend(0, frame)
		for i := 0; i < 10; i++ {
			eng.Poll()
		}
		_, delivered := rep2.Queue().Acquire(app)
		return delivered
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSurvivesFullDoorbell: a wait-free producer cannot block; a
// full doorbell must not stall delivery.
func TestEngineSurvivesFullDoorbell(t *testing.T) {
	a, b := newPair2(t)
	rep, err := b.buf.AllocEndpoint(commbuf.EndpointRecv, 32)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetWakeup(b.app, true) // blocked receiver that never drains the doorbell
	sep, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Far more messages than the doorbell's capacity (64).
	const n = 100
	delivered := 0
	for i := 0; i < n; i++ {
		rm, err := b.buf.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		if err := rm.StageRecv(b.app); err != nil {
			t.Fatal(err)
		}
		if !rep.Queue().Release(b.app, uint64(rm.ID())) {
			t.Fatal("recv queue full")
		}
		sm, err := a.buf.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		if err := sm.StageSend(a.app, rep.Addr(), 1, 0); err != nil {
			t.Fatal(err)
		}
		if !sep.Queue().Release(a.app, uint64(sm.ID())) {
			t.Fatal("send queue full")
		}
		for p := 0; p < 20; p++ {
			a.eng.Poll()
			b.eng.Poll()
		}
		if id, ok := rep.Queue().Acquire(b.app); ok {
			delivered++
			m, _ := b.buf.MsgByID(id)
			m.Reclaim(b.app)
			b.buf.FreeMsg(m)
		}
		if id, ok := sep.Queue().Acquire(a.app); ok {
			m, _ := a.buf.MsgByID(id)
			m.Reclaim(a.app)
			a.buf.FreeMsg(m)
		}
	}
	if delivered != n {
		t.Fatalf("delivered %d/%d with a saturated doorbell", delivered, n)
	}
}

// --- helpers -----------------------------------------------------------

// newPair2 builds a checked two-node rig (distinct name from the main
// test file's newPair to keep both).
func newPair2(t testing.TB) (*testNode, *testNode) {
	fabric := interconnect.NewFabric(64)
	mk := func(node wire.NodeID) *testNode {
		buf, err := commbuf.New(commbuf.Config{
			Node: node, MessageSize: 64, NumBuffers: 16, MaxEndpoints: 8, Padded: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(buf, tr, Config{ValidityChecks: true})
		if err != nil {
			t.Fatal(err)
		}
		return &testNode{buf: buf, eng: eng, app: buf.View(mem.ActorApp)}
	}
	return mk(0), mk(1)
}

// goodPathWorks sends one well-formed message a->b and verifies delivery.
func goodPathWorks(t testing.TB, a, b *testNode) bool {
	good, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	if err != nil {
		return false
	}
	rep, err := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	if err != nil {
		return false
	}
	rm, err := b.buf.AllocMsg()
	if err != nil {
		return false
	}
	if err := rm.StageRecv(b.app); err != nil {
		return false
	}
	if !rep.Queue().Release(b.app, uint64(rm.ID())) {
		return false
	}
	sm, err := a.buf.AllocMsg()
	if err != nil {
		return false
	}
	if err := sm.StageSend(a.app, rep.Addr(), 3, 0); err != nil {
		return false
	}
	if !good.Queue().Release(a.app, uint64(sm.ID())) {
		return false
	}
	for i := 0; i < 30; i++ {
		a.eng.Poll()
		b.eng.Poll()
	}
	_, ok := rep.Queue().Acquire(b.app)
	return ok
}

// metaOffset reaches a message's meta word offset via a sacrificial
// staging (the offset is deterministic per buffer ID; we recover it by
// scanning for the staged value).
func metaOffset(buf *commbuf.Buffer, m *commbuf.Msg) int {
	app := buf.View(mem.ActorApp)
	dst, _ := wire.MakeAddr(1, 1, 1)
	_ = m.StageSend(app, dst, 1, 0)
	arena := buf.Arena()
	for w := 0; w < arena.Words(); w++ {
		v := arena.Load(mem.ActorNone, w)
		if mw := v; mw != 0 {
			gotDst := wire.Addr(mw >> 32)
			size := uint16(mw >> 16)
			state := uint8(mw)
			if gotDst == dst && size == 1 && state == uint8(commbuf.StateQueued) {
				return w
			}
		}
	}
	return 0
}
