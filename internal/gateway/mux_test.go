package gateway

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func newDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	tr, err := fabric.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: 256, NumBuffers: 512}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	return d
}

type muxHarness struct {
	reg *nameservice.TopicRegistry
	dir topic.Directory
	gwD *core.Domain
	pbD *core.Domain
	mux *Mux
}

func newMuxHarness(t *testing.T, cfg Config) *muxHarness {
	t.Helper()
	fabric := interconnect.NewFabric(2048)
	h := &muxHarness{reg: nameservice.NewTopicRegistry()}
	h.dir = topic.LocalDirectory{R: h.reg}
	h.gwD = newDomain(t, fabric, 0)
	h.pbD = newDomain(t, fabric, 1)
	cfg.Dir = h.dir
	if cfg.Name == "" {
		cfg.Name = "gw-test"
	}
	m, err := NewMux(h.gwD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.mux = m
	return h
}

// frameBody encodes f and strips the length prefix, giving the body a
// connection reader would hand to HandleFrame.
func frameBody(t *testing.T, f Frame) []byte {
	t.Helper()
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return enc[frameHeaderBytes:]
}

// popFrames drains and decodes everything queued for c.
func popFrames(t *testing.T, c *Client) []Frame {
	t.Helper()
	var out []Frame
	for {
		b, ok := c.PopOut()
		if !ok {
			return out
		}
		f, err := DecodeBody(b[frameHeaderBytes:])
		if err != nil {
			t.Fatalf("queued frame undecodable: %v", err)
		}
		out = append(out, f)
	}
}

func hello(t *testing.T, m *Mux, c *Client, id string) {
	t.Helper()
	m.HandleFrame(c, frameBody(t, Frame{Op: OpHello, Ver: 1, Name: id}))
	for _, f := range popFrames(t, c) {
		if f.Op == OpErr {
			t.Fatalf("hello refused: code %d %s", f.Code, f.Payload)
		}
	}
}

// pumpUntil drives Pump until pred holds or the deadline passes.
func pumpUntil(t *testing.T, m *Mux, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		m.Pump()
		if time.Now().After(deadline) {
			t.Fatal("pumpUntil: condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Wildcard delivery must be exactly what an equivalent set of exact
// subscriptions would deliver: one exact fabric subscriber and one
// gateway client on metrics.* observe the same stream.
func TestWildcardMatchesExactDelivery(t *testing.T) {
	h := newMuxHarness(t, Config{})
	exact, err := topic.NewSubscriber(h.pbD, h.dir, "metrics.cpu", topic.Normal, 128, 128)
	if err != nil {
		t.Fatal(err)
	}

	c := h.mux.Attach()
	hello(t, h.mux, c, "dash-1")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "metrics.*"}))
	if errs := popFrames(t, c); len(errs) != 0 {
		t.Fatalf("subscribe produced %+v", errs)
	}

	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "metrics.cpu", Class: topic.Normal, Depth: 64, Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 2 {
		t.Fatalf("plan = %d subscribers, want exact + pattern", pub.Subscribers())
	}

	// Paced publishing — each frame is observed at both destinations
	// before the next, so no queue can overflow and equivalence is
	// exact, not probabilistic.
	const rounds = 50
	var got []Frame
	var exactGot int
	for i := 0; i < rounds; i++ {
		res, err := pub.Publish([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != 2 {
			t.Fatalf("publish %d: sent %d dropped %d, want 2 sent (exact + pattern lane)", i, res.Sent, res.Dropped)
		}
		pumpUntil(t, h.mux, func() bool { return int(h.mux.Stats().Received) >= i+1 })
		deadline := time.Now().Add(5 * time.Second)
		for exactGot <= i {
			if _, _, ok := exact.Receive(); ok {
				exactGot++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("exact subscriber missing frame %d", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
		got = append(got, popFrames(t, c)...)
	}
	for _, f := range got {
		if f.Op != OpDeliver || f.Name != "metrics.cpu" {
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if len(got) != rounds || exactGot != rounds {
		t.Fatalf("wildcard delivered %d, exact delivered %d, want %d each", len(got), exactGot, rounds)
	}
	// A topic outside the pattern must not reach the client.
	pub2, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "other.cpu", Class: topic.Normal})
	if err != nil {
		t.Fatal(err)
	}
	if pub2.Subscribers() != 0 {
		t.Fatalf("other.cpu plan = %d, want 0", pub2.Subscribers())
	}
}

// Two clients on overlapping patterns each get exactly one copy, and
// the gateway ledgers balance: matched == delivered + dropped +
// throttled + queued across clients.
func TestFanoutAndConservation(t *testing.T) {
	h := newMuxHarness(t, Config{ClientQueue: 8, ThrottleAt: 4})
	c1 := h.mux.Attach()
	c2 := h.mux.Attach()
	hello(t, h.mux, c1, "a")
	hello(t, h.mux, c2, "b")
	// c1 holds two overlapping patterns — still one copy per frame.
	h.mux.HandleFrame(c1, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Bulk), Name: "telemetry.**"}))
	h.mux.HandleFrame(c1, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Bulk), Name: "telemetry.*"}))
	h.mux.HandleFrame(c2, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Bulk), Name: "telemetry.gps"}))

	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "telemetry.gps", Class: topic.Bulk})
	if err != nil {
		t.Fatal(err)
	}
	// Both clients share one lane inbox: one pattern-plane address.
	if pub.PatternSubscribers() != 1 {
		t.Fatalf("pattern plan = %d, want 1 (shared lane inbox)", pub.PatternSubscribers())
	}

	// Publish until 40 frames actually left for the lane inbox (a
	// fast loop outruns the engine; refused sends are counted drops at
	// the publisher and don't help this test). c1/c2 queues are small
	// and never popped, so overflow and throttling engage.
	published := 0
	deadline := time.Now().Add(10 * time.Second)
	for published < 40 {
		res, err := pub.Publish([]byte("fix"))
		if err != nil {
			t.Fatal(err)
		}
		published += int(res.Sent)
		h.mux.Pump()
		if res.Sent == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("engine never caught up; published %d", published)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	pumpUntil(t, h.mux, func() bool {
		return int(h.mux.Stats().Received)+int(h.mux.InboxDrops(int(topic.Bulk))) >= published
	})

	st := h.mux.Stats()
	law := FramingLaw(h.mux, h.mux.Clients()...)
	if law.Delivered != 0 {
		t.Fatalf("nothing was popped, delivered = %d", law.Delivered)
	}
	if err := law.Err(); err != nil {
		t.Fatal(err)
	}
	// Every received frame matched both clients.
	if st.Matched != 2*st.Received {
		t.Fatalf("matched %d, want 2x received %d", st.Matched, st.Received)
	}
	if !c1.Throttled() || !c2.Throttled() {
		t.Fatalf("queues overflowed far past ThrottleAt but clients not throttled: published %d stats %+v ledger %+v",
			published, st, law)
	}
	// Popping the queue clears the throttle on the next enqueue.
	if _, ok := c1.PopOut(); !ok {
		t.Fatal("queued frame not poppable")
	}
}

// The client publish path bridges onto the topic plane.
func TestClientPublishReachesTopicPlane(t *testing.T) {
	h := newMuxHarness(t, Config{})
	sub, err := topic.NewSubscriber(h.pbD, h.dir, "cmd.reset", topic.Control, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := h.mux.Attach()
	hello(t, h.mux, c, "operator")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpPub, Class: uint8(topic.Control), Name: "cmd.reset", Payload: []byte("now")}))
	if errs := popFrames(t, c); len(errs) != 0 {
		t.Fatalf("publish produced %+v", errs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if payload, _, ok := sub.Receive(); ok {
			if string(payload) != "now" {
				t.Fatalf("payload %q", payload)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("publish never delivered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := h.mux.Stats(); st.PubOK != 1 || st.PubErrs != 0 {
		t.Fatalf("publish ledger %+v", st)
	}
}

// Ops before hello are refused; bad patterns and bad topics are refused.
func TestProtocolGating(t *testing.T) {
	h := newMuxHarness(t, Config{})
	c := h.mux.Attach()
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: 1, Name: "a.*"}))
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpPub, Class: 1, Name: "a", Payload: []byte("x")}))
	frames := popFrames(t, c)
	if len(frames) != 2 || frames[0].Code != ErrCodeNoHello || frames[1].Code != ErrCodeNoHello {
		t.Fatalf("pre-hello ops: %+v", frames)
	}
	hello(t, h.mux, c, "late")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: 1, Name: "bad..pattern"}))
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: 9, Name: "a.*"}))
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpPub, Class: 1, Name: "star.*", Payload: nil}))
	h.mux.HandleFrame(c, []byte{0xEE})
	frames = popFrames(t, c)
	if len(frames) != 4 {
		t.Fatalf("expected 4 errors, got %+v", frames)
	}
	for i, f := range frames[:3] {
		if f.Op != OpErr || f.Code != ErrCodeBadName {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if frames[3].Code != ErrCodeBadFrame {
		t.Fatalf("unknown op: %+v", frames[3])
	}
}

func TestPingPong(t *testing.T) {
	h := newMuxHarness(t, Config{})
	c := h.mux.Attach()
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpPing, Payload: []byte("t0=42")}))
	frames := popFrames(t, c)
	if len(frames) != 1 || frames[0].Op != OpPong || string(frames[0].Payload) != "t0=42" {
		t.Fatalf("pong: %+v", frames)
	}
}

// Presence leases follow the client lifecycle: hello upserts, detach
// drops, and an undetached (crashed-gateway) client's lease expires on
// the registry sweep alone.
func TestPresenceLifecycle(t *testing.T) {
	h := newMuxHarness(t, Config{Name: "gw-a"})
	c := h.mux.Attach()
	hello(t, h.mux, c, "sensor")
	if n := h.reg.PresenceCount(); n != 1 {
		t.Fatalf("presence after hello = %d", n)
	}
	ents := h.reg.PresenceEntries()
	if len(ents) != 1 || ents[0].Key != "gw-a/sensor" || ents[0].Gateway != "gw-a" {
		t.Fatalf("presence entries %+v", ents)
	}
	if by := h.reg.PresenceByGateway(); by["gw-a"] != 1 {
		t.Fatalf("presence by gateway %+v", by)
	}
	h.mux.Detach(c)
	if n := h.reg.PresenceCount(); n != 0 {
		t.Fatalf("presence after detach = %d", n)
	}

	// Crash path: no detach, no renewal — the sweep reclaims it.
	c2 := h.mux.Attach()
	hello(t, h.mux, c2, "doomed")
	for i := 0; i < 4; i++ {
		h.reg.Advance()
	}
	if n := h.reg.PresenceCount(); n != 0 {
		t.Fatalf("presence after lease expiry = %d", n)
	}
	// Housekeeping renews it again.
	h.mux.Housekeeping()
	if n := h.reg.PresenceCount(); n != 1 {
		t.Fatalf("presence after housekeeping = %d", n)
	}
}

// Pattern registrations are refcounted across clients: the registry
// subscription appears on the first subscriber and disappears with the
// last, and Housekeeping renews it against the TTL sweep.
func TestPatternRefcountAndRenewal(t *testing.T) {
	h := newMuxHarness(t, Config{})
	c1 := h.mux.Attach()
	c2 := h.mux.Attach()
	hello(t, h.mux, c1, "a")
	hello(t, h.mux, c2, "b")
	sub := frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "m.*"})
	h.mux.HandleFrame(c1, append([]byte(nil), sub...))
	h.mux.HandleFrame(c2, append([]byte(nil), sub...))
	if n := h.reg.PatternCount(); n != 1 {
		t.Fatalf("registry patterns = %d, want 1 shared", n)
	}
	h.mux.Detach(c1)
	if n := h.reg.PatternCount(); n != 1 {
		t.Fatalf("registry patterns after first detach = %d", n)
	}
	// Renewal keeps it alive across sweeps while c2 holds it.
	for i := 0; i < 6; i++ {
		h.reg.Advance()
		h.mux.Housekeeping()
	}
	if n := h.reg.PatternCount(); n != 1 {
		t.Fatalf("registry patterns after renewals = %d", n)
	}
	h.mux.Detach(c2)
	if n := h.reg.PatternCount(); n != 0 {
		t.Fatalf("registry patterns after last detach = %d", n)
	}
}

// Unsub releases the lane index entry so later frames stop matching.
func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := newMuxHarness(t, Config{})
	c := h.mux.Attach()
	hello(t, h.mux, c, "x")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "n.*"}))
	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "n.t", Class: topic.Normal, RefreshEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish([]byte("1")); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, h.mux, func() bool { return h.mux.Stats().Received >= 1 })
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpUnsub, Name: "n.*"}))
	if n := h.reg.PatternCount(); n != 0 {
		t.Fatalf("registry patterns after unsub = %d", n)
	}
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 0 {
		t.Fatalf("plan after unsub = %d", pub.Subscribers())
	}
	frames := popFrames(t, c)
	if len(frames) != 1 || frames[0].Op != OpDeliver {
		t.Fatalf("pre-unsub delivery: %+v", frames)
	}
}

// gatewayOK is the verdict of the "gateway" health source in reg.
func gatewayOK(t *testing.T, reg *metrics.Registry) bool {
	t.Helper()
	for _, st := range reg.Statuses() {
		if st.Name == "gateway" {
			return st.OK
		}
	}
	t.Fatal("no gateway health source registered")
	return false
}

// The gateway's health snapshot, and the health source it registers,
// reflect saturation of a class inbox.
func TestHealthSaturation(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newMuxHarness(t, Config{Name: "gw-sat", InboxBuffers: 4, Registry: reg})
	if !gatewayOK(t, reg) {
		t.Fatal("idle gateway reads degraded")
	}
	c := h.mux.Attach()
	hello(t, h.mux, c, "x")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Bulk), Name: "flood.*"}))
	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "flood.a", Class: topic.Bulk, Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Flood without pumping: the 4-buffer inbox must drop.
	deadline := time.Now().Add(5 * time.Second)
	for h.mux.InboxDrops(int(topic.Bulk)) == 0 {
		if _, err := pub.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("inbox never dropped")
		}
	}
	h.mux.Housekeeping()
	hl := h.mux.Health()
	if !hl.Degraded() {
		t.Fatalf("health not degraded: %+v", hl)
	}
	if !hl.PerClass[int(topic.Bulk)].Saturated {
		t.Fatalf("bulk lane not saturated: %+v", hl)
	}
	if gatewayOK(t, reg) {
		t.Fatal("saturated gateway's health source reads healthy")
	}
	// With the flood stopped and in-flight frames drained, a later
	// tick clears it (saturation is a per-tick drop delta).
	deadline = time.Now().Add(5 * time.Second)
	for h.mux.Health().Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("saturation did not clear")
		}
		h.mux.Pump()
		time.Sleep(time.Millisecond)
		h.mux.Housekeeping()
	}
	if !gatewayOK(t, reg) {
		t.Fatal("health source still degraded after saturation cleared")
	}
}

func TestGatewayMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newMuxHarness(t, Config{Name: "gw-m", Registry: reg})
	c := h.mux.Attach()
	hello(t, h.mux, c, "m")
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "mm.*"}))
	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "mm.x", Class: topic.Normal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish([]byte("1")); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, h.mux, func() bool { return h.mux.Stats().Received >= 1 })
	h.mux.Housekeeping()
	snap := reg.Snapshot()
	if got := snap.Gauges[metrics.Name("flipc_gw_conns", "gw", "gw-m")]; got != 1 {
		t.Fatalf("conns gauge = %v", got)
	}
	if got := snap.Counters[metrics.Name("flipc_gw_matched_total", "gw", "gw-m")]; got != 1 {
		t.Fatalf("matched counter = %v", got)
	}
	if got := snap.Gauges[metrics.Name("flipc_gw_patterns", "gw", "gw-m")]; got != 1 {
		t.Fatalf("patterns gauge = %v", got)
	}
}

// A second hello under a different name must not strand the first
// presence lease: Detach drops the one key the client holds.
func TestRepeatedHelloKeepsOneLease(t *testing.T) {
	h := newMuxHarness(t, Config{})
	c := h.mux.Attach()
	hello(t, h.mux, c, "a")
	hello(t, h.mux, c, "a") // same name: idempotent
	h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpHello, Ver: 1, Name: "b"}))
	if frames := popFrames(t, c); len(frames) != 1 || frames[0].Op != OpErr || frames[0].Code != ErrCodeBadFrame {
		t.Fatalf("renaming hello answered %+v, want one bad-frame error", frames)
	}
	if n := h.reg.PresenceCount(); n != 1 {
		t.Fatalf("presence after three hellos = %d, want 1", n)
	}
	h.mux.Detach(c)
	if n := h.reg.PresenceCount(); n != 0 {
		t.Fatalf("presence after detach = %d, want 0", n)
	}
}

// drainUntilDetached is a client's writer: it pops until Detach, waking
// only through Kick, then makes the one PopOut that hands back what it
// held.
func drainUntilDetached(c *Client) {
	for {
		if _, ok := c.PopOut(); ok {
			continue
		}
		if c.Closed() {
			c.PopOut()
			return
		}
		<-c.Kick()
	}
}

// Clients attach, subscribe, ping and detach while one goroutine pumps
// and every client's writer drains through its own goroutine. At
// quiescence the framing law over every client ever attached balances
// exactly: a detach racing a delivery may not lose the frame.
func TestDetachRacingDeliveryKeepsFramingLaw(t *testing.T) {
	h := newMuxHarness(t, Config{ClientQueue: 8, ThrottleAt: 4})
	var writers sync.WaitGroup
	attach := func(id string) *Client {
		c := h.mux.Attach()
		hello(t, h.mux, c, id)
		h.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "stress.*"}))
		writers.Add(1)
		go func() { defer writers.Done(); drainUntilDetached(c) }()
		return c
	}
	anchor := attach("anchor")
	all := []*Client{anchor}
	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "stress.x", Class: topic.Normal, Window: 256, RefreshEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h.mux.Pump() == 0 {
				runtime.Gosched()
			}
		}
	}()

	var sent uint64
	ping := frameBody(t, Frame{Op: OpPing, Payload: []byte("p")})
	var live []*Client
	for round := 0; round < 200; round++ {
		c := attach(fmt.Sprintf("c%d", round))
		all = append(all, c)
		live = append(live, c)
		h.mux.HandleFrame(c, ping)
		for i := 0; i < 4; i++ {
			res, err := pub.Publish([]byte{byte(round), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			sent += uint64(res.Sent)
		}
		if len(live) > 3 {
			h.mux.Detach(live[0])
			live = live[1:]
		}
	}
	for _, c := range append(live, anchor) {
		h.mux.Detach(c)
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a writer never woke for its detach")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !pub.Outbox().Flush() || h.mux.Stats().Received+h.mux.InboxDrops(int(topic.Normal)) < sent {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never drained: sent %d, stats %+v", sent, h.mux.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	<-pumped
	if err := FramingLaw(h.mux, all...).Err(); err != nil {
		t.Fatal(err)
	}
	h.mux.Pump() // reaps the last departures: every writer handed back what it held
	if free, slots := len(h.mux.slab.free), len(*h.mux.slab.slots.Load()); free != slots {
		t.Fatalf("%d of %d slab slots free after every client left", free, slots)
	}
}

// Each term of the framing law, broken in turn, must fail the check
// with an error that names the term and its value.
func TestFramingLedgerErrNamesTerms(t *testing.T) {
	ok := FramingLedger{Matched: 100, Delivered: 60, Dropped: 25, Throttled: 10, Queued: 5}
	if err := ok.Err(); err != nil {
		t.Fatalf("balanced ledger: %v", err)
	}
	for _, tc := range []struct {
		term  string
		bump  func(*FramingLedger)
		names string
	}{
		{"matched", func(l *FramingLedger) { l.Matched++ }, "matched 101"},
		{"delivered", func(l *FramingLedger) { l.Delivered++ }, "delivered 61"},
		{"dropped", func(l *FramingLedger) { l.Dropped++ }, "dropped 26"},
		{"throttled", func(l *FramingLedger) { l.Throttled++ }, "throttled 11"},
		{"queued", func(l *FramingLedger) { l.Queued++ }, "queued 6"},
	} {
		l := ok
		tc.bump(&l)
		err := l.Err()
		if err == nil {
			t.Errorf("%s off by one: law still balanced", tc.term)
		} else if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s off by one: error %q does not name %q", tc.term, err, tc.names)
		}
	}
}
