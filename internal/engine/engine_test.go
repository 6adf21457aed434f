package engine

import (
	"runtime"
	"testing"

	"flipc/internal/commbuf"
	"flipc/internal/interconnect"
	"flipc/internal/israce"
	"flipc/internal/mem"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

// testNode bundles one node's buffer, engine, and app view.
type testNode struct {
	buf *commbuf.Buffer
	eng *Engine
	app mem.View
}

// newPair builds two nodes connected by an in-process fabric.
func newPair(t *testing.T, ecfg Config) (*testNode, *testNode) {
	t.Helper()
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
		eng, err := New(buf, tr, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		return &testNode{buf: buf, eng: eng, app: buf.View(mem.ActorApp)}
	}
	return mk(0), mk(1)
}

// post stages and releases a receive buffer.
func post(t *testing.T, n *testNode, rep *commbuf.Endpoint) *commbuf.Msg {
	t.Helper()
	m, err := n.buf.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StageRecv(n.app); err != nil {
		t.Fatal(err)
	}
	if !rep.Queue().Release(n.app, uint64(m.ID())) {
		t.Fatal("recv queue full")
	}
	return m
}

// send stages and releases a send buffer carrying payload.
func send(t *testing.T, n *testNode, sep *commbuf.Endpoint, dst wire.Addr, payload string) *commbuf.Msg {
	t.Helper()
	m, err := n.buf.AllocMsg()
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Payload(), payload)
	if err := m.StageSend(n.app, dst, len(payload), 0); err != nil {
		t.Fatal(err)
	}
	if !sep.Queue().Release(n.app, uint64(m.ID())) {
		t.Fatal("send queue full")
	}
	return m
}

func pump(nodes ...*testNode) {
	for pass := 0; pass < 50; pass++ {
		work := false
		for _, n := range nodes {
			if n.eng.Poll() {
				work = true
			}
		}
		if !work {
			return
		}
	}
}

func TestNewValidation(t *testing.T) {
	fabric := interconnect.NewFabric(4)
	tr, _ := fabric.Attach(0)
	buf, _ := commbuf.New(commbuf.Config{Node: 1, MessageSize: 64})
	if _, err := New(buf, tr, Config{}); err == nil {
		t.Fatal("node mismatch accepted")
	}
	if _, err := New(nil, tr, Config{}); err == nil {
		t.Fatal("nil buffer accepted")
	}
	buf0, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64})
	if _, err := New(buf0, nil, Config{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	e, err := New(buf0, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().SendQuantum == 0 || e.Config().RecvQuantum == 0 {
		t.Fatal("quantum defaults not applied")
	}
}

func TestBasicTransfer(t *testing.T) {
	a, b := newPair(t, Config{ValidityChecks: true})
	sep, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	if err != nil {
		t.Fatal(err)
	}
	rm := post(t, b, rep)
	sm := send(t, a, sep, rep.Addr(), "hello, node 1")
	pump(a, b)

	// Sender reclaims its buffer (step 5).
	id, ok := sep.Queue().Acquire(a.app)
	if !ok || id != uint64(sm.ID()) {
		t.Fatalf("sender acquire = %d,%v", id, ok)
	}
	if sm.State(a.app) != commbuf.StateDone {
		t.Fatalf("send buffer state = %v", sm.State(a.app))
	}
	// Receiver takes the message (step 4).
	rid, ok := rep.Queue().Acquire(b.app)
	if !ok || rid != uint64(rm.ID()) {
		t.Fatalf("receiver acquire = %d,%v", rid, ok)
	}
	if got := rm.Size(b.app); got != 13 {
		t.Fatalf("received size = %d", got)
	}
	if string(rm.Payload()[:13]) != "hello, node 1" {
		t.Fatalf("payload = %q", rm.Payload()[:13])
	}
	st := a.eng.Stats()
	if st.Sent != 1 {
		t.Fatalf("sender stats = %+v", st)
	}
	if bs := b.eng.Stats(); bs.Delivered != 1 || bs.RecvDrops != 0 {
		t.Fatalf("receiver stats = %+v", bs)
	}
}

func TestOrderPreservedSameEndpointPair(t *testing.T) {
	a, b := newPair(t, Config{})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
	var recvMsgs []*commbuf.Msg
	for i := 0; i < 6; i++ {
		recvMsgs = append(recvMsgs, post(t, b, rep))
	}
	for i := 0; i < 6; i++ {
		send(t, a, sep, rep.Addr(), string(rune('A'+i)))
	}
	pump(a, b)
	for i := 0; i < 6; i++ {
		id, ok := rep.Queue().Acquire(b.app)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		m, _ := b.buf.MsgByID(id)
		if got := string(m.Payload()[:1]); got != string(rune('A'+i)) {
			t.Fatalf("message %d = %q (order broken)", i, got)
		}
	}
	_ = recvMsgs
}

func TestDropWhenNoBufferPosted(t *testing.T) {
	a, b := newPair(t, Config{})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	send(t, a, sep, rep.Addr(), "doomed")
	pump(a, b)
	if rep.Drops().Read(b.app) != 1 {
		t.Fatalf("drop counter = %d, want 1", rep.Drops().Read(b.app))
	}
	if st := b.eng.Stats(); st.RecvDrops != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// read-and-reset semantics
	if got := rep.Drops().ReadAndReset(b.app); got != 1 {
		t.Fatalf("ReadAndReset = %d", got)
	}
	if rep.Drops().Read(b.app) != 0 {
		t.Fatal("counter not reset")
	}
	// Posting a buffer afterwards does not resurrect the message.
	post(t, b, rep)
	pump(a, b)
	if _, delivered := rep.Queue().Depths(b.app); delivered != 0 {
		t.Fatal("discarded message was delivered")
	}
}

func TestStaleGenerationDropped(t *testing.T) {
	a, b := newPair(t, Config{})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	stale := rep.Addr()
	if err := b.buf.FreeEndpoint(rep); err != nil {
		t.Fatal(err)
	}
	rep2, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep2)
	send(t, a, sep, stale, "to the dead endpoint")
	pump(a, b)
	if st := b.eng.Stats(); st.AddrDrops != 1 {
		t.Fatalf("stale address not dropped: %+v", st)
	}
	if _, delivered := rep2.Queue().Depths(b.app); delivered != 0 {
		t.Fatal("stale-addressed message delivered to new endpoint")
	}
}

func TestWrongTypeEndpointDropped(t *testing.T) {
	a, b := newPair(t, Config{})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	bsep, _ := b.buf.AllocEndpoint(commbuf.EndpointSend, 4) // send ep as dst
	send(t, a, sep, bsep.Addr(), "misdirected")
	pump(a, b)
	if st := b.eng.Stats(); st.AddrDrops != 1 {
		t.Fatalf("wrong-type destination not dropped: %+v", st)
	}
}

func TestCorruptSendSlotQuarantinesEndpoint(t *testing.T) {
	a, _ := newPair(t, Config{ValidityChecks: true})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	// Corrupt the queue: release a slot value that is not a buffer ID.
	if !sep.Queue().Release(a.app, 9999) {
		t.Fatal("release failed")
	}
	a.eng.Poll()
	st := a.eng.Stats()
	if st.EndpointFaults[FaultBadBufID] != 1 || st.Quarantines != 1 {
		t.Fatalf("corrupt slot not quarantined: %+v", st)
	}
	if st.Sent != 0 || st.SendRefused != 0 {
		t.Fatalf("corrupt slot treated as traffic: %+v", st)
	}
	q := a.eng.Quarantined()
	if len(q) != 1 || q[0].Slot != sep.Index() || q[0].Kind != FaultBadBufID {
		t.Fatalf("quarantine snapshot = %+v", q)
	}
	// The endpoint is frozen: a later good send on it goes nowhere, and
	// the episode is counted once, not per pass.
	m, _ := a.buf.AllocMsg()
	dst, _ := wire.MakeAddr(1, 0, 1)
	copy(m.Payload(), "ok")
	if err := m.StageSend(a.app, dst, 2, 0); err != nil {
		t.Fatal(err)
	}
	sep.Queue().Release(a.app, uint64(m.ID()))
	a.eng.Poll()
	a.eng.Poll()
	if st := a.eng.Stats(); st.Sent != 0 || st.Quarantines != 1 {
		t.Fatalf("quarantined endpoint still serviced: %+v", st)
	}
	// Recovery: the application frees and re-allocates the slot. The
	// config word changes (generation bump), the engine rebuilds its
	// cache, and the fresh endpoint flows.
	if err := a.buf.FreeEndpoint(sep); err != nil {
		t.Fatal(err)
	}
	sep2, err := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sep2.Index() != sep.Index() {
		t.Fatalf("slot not reused: %d vs %d", sep2.Index(), sep.Index())
	}
	m2, _ := a.buf.AllocMsg()
	copy(m2.Payload(), "ok")
	if err := m2.StageSend(a.app, dst, 2, 0); err != nil {
		t.Fatal(err)
	}
	sep2.Queue().Release(a.app, uint64(m2.ID()))
	a.eng.Poll()
	st = a.eng.Stats()
	if st.QuarantineRecoveries != 1 || st.Sent != 1 {
		t.Fatalf("quarantine not lifted by generation bump: %+v", st)
	}
	if q := a.eng.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine snapshot not cleared: %+v", q)
	}
}

func TestUnstagedBufferQuarantinesEndpoint(t *testing.T) {
	a, _ := newPair(t, Config{ValidityChecks: true})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	m, _ := a.buf.AllocMsg()
	// Release a buffer that was never staged (state Owned, not Queued):
	// the application still owns memory the engine would transmit.
	sep.Queue().Release(a.app, uint64(m.ID()))
	a.eng.Poll()
	st := a.eng.Stats()
	if st.EndpointFaults[FaultBadBufState] != 1 || st.Sent != 0 {
		t.Fatalf("unstaged buffer not quarantined: %+v", st)
	}
}

// A faulty endpoint consumes no send quantum: with SendQuantum=1, the
// pass that quarantines slot 0 must still transmit slot 1's message.
func TestFaultConsumesNoQuantum(t *testing.T) {
	a, b := newPair(t, Config{ValidityChecks: true, SendQuantum: 1})
	bad, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	good, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep)
	bad.Queue().Release(a.app, 9999) // corrupt slot on the first-scanned endpoint
	send(t, a, good, rep.Addr(), "through")
	a.eng.Poll()
	st := a.eng.Stats()
	if st.EndpointFaults[FaultBadBufID] != 1 {
		t.Fatalf("bad endpoint not quarantined: %+v", st)
	}
	if st.Sent != 1 {
		t.Fatalf("fault consumed the pass's quantum: %+v", st)
	}
}

func TestBadFrameCounted(t *testing.T) {
	fabric := interconnect.NewFabric(8)
	buf, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64})
	tr, _ := fabric.Attach(0)
	injector, _ := fabric.Attach(1)
	eng, _ := New(buf, tr, Config{})
	// A frame of zeros has an invalid destination address.
	injector.TrySend(0, make([]byte, 64))
	eng.Poll()
	if st := eng.Stats(); st.BadFrames != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWireBusyRetriesPreserveOrder(t *testing.T) {
	// Fabric depth 1 forces WireBusy; the engine must retry without
	// reordering or losing messages.
	fabric := interconnect.NewFabric(1)
	mk := func(node wire.NodeID) *testNode {
		buf, _ := commbuf.New(commbuf.Config{Node: node, MessageSize: 64, NumBuffers: 16})
		tr, _ := fabric.Attach(node)
		eng, _ := New(buf, tr, Config{SendQuantum: 8, RecvQuantum: 1})
		return &testNode{buf: buf, eng: eng, app: buf.View(mem.ActorApp)}
	}
	a, b := mk(0), mk(1)
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
	for i := 0; i < 5; i++ {
		post(t, b, rep)
	}
	for i := 0; i < 5; i++ {
		send(t, a, sep, rep.Addr(), string(rune('0'+i)))
	}
	pump(a, b)
	if st := a.eng.Stats(); st.WireBusy == 0 {
		t.Fatalf("expected wire backpressure, stats = %+v", st)
	}
	for i := 0; i < 5; i++ {
		id, ok := rep.Queue().Acquire(b.app)
		if !ok {
			t.Fatalf("message %d lost under backpressure", i)
		}
		m, _ := b.buf.MsgByID(id)
		if got := string(m.Payload()[:1]); got != string(rune('0'+i)) {
			t.Fatalf("message %d = %q", i, got)
		}
	}
}

// An application that never posts buffers or drains queues must not
// stall the engine or other endpoints: the wait-free guarantee.
func TestErrantAppCannotStallEngine(t *testing.T) {
	a, b := newPair(t, Config{})
	// Errant app: send endpoint with a full queue of garbage never drained.
	errant, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	deadDst, _ := wire.MakeAddr(1, 7, 9) // nowhere
	for i := 0; i < 4; i++ {
		m, _ := a.buf.AllocMsg()
		m.StageSend(a.app, deadDst, 1, 0)
		errant.Queue().Release(a.app, uint64(m.ID()))
	}
	// Well-behaved app on the same node.
	good, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep)
	send(t, a, good, rep.Addr(), "through")
	pump(a, b)
	if _, delivered := rep.Queue().Depths(b.app); delivered == 0 {
		t.Fatal("well-behaved endpoint starved by errant one")
	}
}

func TestDoorbellOnWakeupRequest(t *testing.T) {
	a, b := newPair(t, Config{})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep)
	rep.SetWakeup(b.app, true)
	send(t, a, sep, rep.Addr(), "wake up")
	pump(a, b)
	if st := b.eng.Stats(); st.Doorbells != 1 {
		t.Fatalf("doorbells = %d", st.Doorbells)
	}
	kv := b.buf.View(mem.ActorKernel)
	v, ok := b.buf.Doorbell().Pop(kv)
	if !ok || int(v) != rep.Index() {
		t.Fatalf("doorbell entry = %d,%v", v, ok)
	}
	// Without the flag, no doorbell.
	rep.SetWakeup(b.app, false)
	post(t, b, rep)
	send(t, a, sep, rep.Addr(), "quiet")
	pump(a, b)
	if st := b.eng.Stats(); st.Doorbells != 1 {
		t.Fatalf("doorbell rang without request: %d", st.Doorbells)
	}
}

func TestPrioritySendPolicy(t *testing.T) {
	// Single fabric slot; two send endpoints with different priorities,
	// each with one queued message. Under PolicyPriority the
	// high-priority endpoint's message is transmitted first every time.
	fabric := interconnect.NewFabric(1)
	buf, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 16})
	tr, _ := fabric.Attach(0)
	sink, _ := fabric.Attach(1)
	eng, _ := New(buf, tr, Config{Policy: PolicyPriority, SendQuantum: 1})
	app := buf.View(mem.ActorApp)
	low, _ := buf.AllocEndpointPrio(commbuf.EndpointSend, 4, 0)
	high, _ := buf.AllocEndpointPrio(commbuf.EndpointSend, 4, 5)
	dst, _ := wire.MakeAddr(1, 0, 1)
	queue := func(ep *commbuf.Endpoint, tag string) {
		m, _ := buf.AllocMsg()
		copy(m.Payload(), tag)
		m.StageSend(app, dst, 1, 0)
		ep.Queue().Release(app, uint64(m.ID()))
	}
	queue(low, "L")
	queue(high, "H")
	eng.Poll()
	frame, ok := sink.Poll()
	if !ok {
		t.Fatal("nothing sent")
	}
	pkt, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt.Payload) != "H" {
		t.Fatalf("first transmitted = %q, want high-priority message", pkt.Payload)
	}
}

func TestReservedQuantumCapsLowPriority(t *testing.T) {
	// SendQuantum 4 with 2 reserved for priority >= 1: a saturated
	// priority-0 endpoint may use at most 2 slots per pass; the
	// reserved slots stay available to the control-class endpoint even
	// though round-robin order visits the bulk endpoint first.
	fabric := interconnect.NewFabric(64)
	buf, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 32})
	tr, _ := fabric.Attach(0)
	fabric.Attach(1)
	eng, _ := New(buf, tr, Config{SendQuantum: 4, ReservedQuantum: 2, ReservePriority: 1})
	app := buf.View(mem.ActorApp)
	bulk, _ := buf.AllocEndpointPrio(commbuf.EndpointSend, 16, 0)
	ctl, _ := buf.AllocEndpointPrio(commbuf.EndpointSend, 16, 5)
	dst, _ := wire.MakeAddr(1, 0, 1)
	queue := func(ep *commbuf.Endpoint, n int) {
		for i := 0; i < n; i++ {
			m, _ := buf.AllocMsg()
			m.StageSend(app, dst, 1, 0)
			ep.Queue().Release(app, uint64(m.ID()))
		}
	}
	queue(bulk, 10)
	eng.Poll()
	if st := eng.Stats(); st.Sent != 2 {
		t.Fatalf("bulk-only pass sent %d, want 2 (reserved slots must go unused, not to bulk)", st.Sent)
	}
	queue(ctl, 10)
	eng.Poll()
	if st := eng.Stats(); st.Sent != 2+4 {
		t.Fatalf("mixed pass total sent %d, want 6 (2 bulk + full quantum when control present)", st.Sent)
	}
}

func TestQuantumBoundsWorkPerPoll(t *testing.T) {
	a, b := newPair(t, Config{SendQuantum: 2})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 8)
	for i := 0; i < 6; i++ {
		post(t, b, rep)
		send(t, a, sep, rep.Addr(), "x")
	}
	a.eng.Poll()
	if st := a.eng.Stats(); st.Sent != 2 {
		t.Fatalf("quantum not enforced: sent %d", st.Sent)
	}
}

func TestAllowedNodesProtection(t *testing.T) {
	// Node 0 may only send to node 1; a send addressed to node 2 must
	// be refused by the validity checks and counted, without wedging
	// the endpoint (the future-work protection extension).
	fabric := interconnect.NewFabric(64)
	mk := func(node wire.NodeID, allowed []wire.NodeID) *testNode {
		buf, err := commbuf.New(commbuf.Config{
			Node: node, MessageSize: 64, NumBuffers: 16, AllowedNodes: allowed,
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
	a := mk(0, []wire.NodeID{1})
	b := mk(1, nil)
	c := mk(2, nil)

	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 8)
	repB, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	repC, _ := c.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, repB)
	post(t, c, repC)

	forbidden := send(t, a, sep, repC.Addr(), "forbidden")
	allowed := send(t, a, sep, repB.Addr(), "allowed")
	pump(a, b, c)

	if st := a.eng.Stats(); st.SendRefused != 1 || st.Sent != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if forbidden.State(a.app) != commbuf.StateDropped {
		t.Fatalf("forbidden send state = %v", forbidden.State(a.app))
	}
	if allowed.State(a.app) != commbuf.StateDone {
		t.Fatalf("allowed send state = %v", allowed.State(a.app))
	}
	if _, delivered := repC.Queue().Depths(c.app); delivered != 0 {
		t.Fatal("forbidden message delivered")
	}
	if _, delivered := repB.Queue().Depths(b.app); delivered == 0 {
		t.Fatal("allowed message lost")
	}
	if sep.Drops().Read(a.app) != 1 {
		t.Fatal("refused send not counted on the endpoint")
	}
	// The local node is implicitly allowed.
	repA, _ := a.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, a, repA)
	send(t, a, sep, repA.Addr(), "self")
	pump(a, b, c)
	if _, delivered := repA.Queue().Depths(a.app); delivered == 0 {
		t.Fatal("local send refused")
	}
}

func TestAllowedNodesUnconfiguredMeansOpen(t *testing.T) {
	a, b := newPair(t, Config{ValidityChecks: true})
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep)
	send(t, a, sep, rep.Addr(), "open")
	pump(a, b)
	if _, delivered := rep.Queue().Depths(b.app); delivered == 0 {
		t.Fatal("send refused with no protection configured")
	}
}

func TestEngineTraceRecordsEvents(t *testing.T) {
	fabric := interconnect.NewFabric(64)
	ring := trace.New(64)
	mk := func(node wire.NodeID) *testNode {
		buf, err := commbuf.New(commbuf.Config{Node: node, MessageSize: 64, NumBuffers: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(buf, tr, Config{Trace: ring})
		if err != nil {
			t.Fatal(err)
		}
		return &testNode{buf: buf, eng: eng, app: buf.View(mem.ActorApp)}
	}
	a, b := mk(0), mk(1)
	sep, _ := a.buf.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := b.buf.AllocEndpoint(commbuf.EndpointRecv, 4)
	post(t, b, rep)
	send(t, a, sep, rep.Addr(), "traced")
	send(t, a, sep, rep.Addr(), "dropped") // second has no buffer
	pump(a, b)
	var sawSend, sawDeliver, sawNoBuffer bool
	for _, e := range ring.Events() {
		switch e.What {
		case "send.ok":
			sawSend = true
		case "recv.delivered":
			sawDeliver = true
		case "recv.nobuffer":
			sawNoBuffer = true
		}
	}
	if !sawSend || !sawDeliver || !sawNoBuffer {
		t.Fatalf("trace missing events: send=%v deliver=%v nobuffer=%v (total %d)",
			sawSend, sawDeliver, sawNoBuffer, ring.Total())
	}
}

// TestOpenEndpointsAllocs: the engine holds each descriptor by value in
// its slot cache and its send list in an array made once, so a pass that
// finds 8 freshly allocated endpoints opens them, rebuilds the scan
// order and serves them without a heap object, under either policy.
func TestOpenEndpointsAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const rounds, perPass = 8, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	for _, policy := range []SendPolicy{PolicyRoundRobin, PolicyPriority} {
		buf, err := commbuf.New(commbuf.Config{
			Node: 0, MessageSize: 64, NumBuffers: 16, MaxEndpoints: rounds * perPass, Padded: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := interconnect.NewFabric(16).Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(buf, tr, Config{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		var total uint64
		for r := 0; r < rounds; r++ {
			for k := 0; k < perPass; k++ {
				typ := commbuf.EndpointSend
				if k%2 == 1 {
					typ = commbuf.EndpointRecv
				}
				if _, err := buf.AllocEndpointPrio(typ, 2, uint8(k)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m0)
			e.Poll()
			runtime.ReadMemStats(&m1)
			total += m1.Mallocs - m0.Mallocs
		}
		if got := len(e.active); got != rounds*perPass/2 {
			t.Fatalf("policy %d: %d send endpoints in the scan, want %d", policy, got, rounds*perPass/2)
		}
		// Whole objects per pass, as AllocsPerRun reports them.
		if total/rounds != 0 {
			t.Fatalf("policy %d: %d passes opening %d endpoints each allocated %d objects, want 0 a pass",
				policy, rounds, perPass, total)
		}
	}
}
