package main

import (
	"bytes"
	"fmt"

	"flipc/internal/gateway"
	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// nGateways is the scenario's gateway count: three independent edge
// multiplexers, one of which is killed mid-traffic.
const nGateways = 3

// simClient is one edge client: it speaks the wire framing protocol in
// both directions — requests are encoded with the codec and fed through
// the scanner into HandleFrame, deliveries are popped as raw frames and
// re-scanned/decoded — so every message crosses the client framing
// boundary exactly as it would over TCP.
type simClient struct {
	c       *gateway.Client
	decoded uint64 // OpDeliver frames decoded back out of the framing
	other   uint64 // anything else that arrived (must stay zero here)
	lat     samples
	measure bool // laggard clients skew queue-wait, not fabric latency
}

// edge is the scenario's edge plane: one shared registry, gateways on
// nodes 0..2 each multiplexing its clients, and a fabric-side publisher
// on node 3 whose whole fanout plan comes from the wildcard plane.
type edge struct {
	reg     *nameservice.TopicRegistry
	muxes   [nGateways]*gateway.Mux
	alive   [nGateways]bool
	names   []string
	clients [nGateways][]*simClient
	windows [nGateways][]*samples
	laggard *simClient
	ctl     *stream // the fabric-side publisher; one tag ledger across all gateways
}

// runGateway is the client edge plane failure scenario: three gateways
// multiplex simulated clients onto the fabric, every client subscribed
// to the same wildcard pattern ("ctl.*") and recorded as a leased
// presence entry; a fabric-side publisher drives tagged control
// traffic through the pattern plane. Mid-way through phase two, one
// gateway is killed cold — its pump and housekeeping stop, its clients
// are never detached. The scenario enforces the edge-plane contract:
//
//   - zero stranded presence: the dead gateway's clients and pattern
//     subscriptions disappear on lease expiry alone, with no cleanup
//     protocol, while survivors' leases ride through every sweep;
//   - failure isolation: the surviving gateways' ctl p99 stays within
//     1.2x their own pre-kill baseline;
//   - exact conservation across the client framing boundary, per
//     gateway (the framing law), with clients' decoded count equal to
//     the mux's own delivered ledger — the framing neither invents nor
//     loses frames;
//   - the backpressure discipline is exercised for real: a laggard
//     client on a surviving gateway must take counted drops and
//     throttles without disturbing its neighbors' ledgers.
func runGateway(o opts) error {
	if o.nodes < nGateways+1 {
		o.nodes = nGateways + 1 // 3 gateways + publisher
	}
	if o.clients < 2 {
		return fmt.Errorf("-gateway needs at least 2 clients per gateway")
	}
	sc, err := newScenario(o, simcluster.Config{NumBuffers: 16 * o.window})
	if err != nil {
		return err
	}
	defer sc.close()
	e, err := newEdge(sc)
	if err != nil {
		return err
	}

	// Phase one: traffic through all three gateways, establishing each
	// gateway's own latency baseline.
	sc.settleUntil(sc.phase(e.ctl.publish), e.quiet())
	before, err := summarizeEach(e.names, "baseline", e.windows[:])
	if err != nil {
		return err
	}

	// Phase two: same traffic, with gateway 1 killed cold mid-phase —
	// no detach, no unsubscribe, no presence drop. Everything it held
	// must die by lease expiry alone.
	const victim = 1
	sc.c.Clock.At(sc.midPhase(), func() { e.alive[victim] = false })
	sc.settleUntil(sc.phase(e.ctl.publish), e.quiet())
	after, err := summarizeEach(e.names, "phase two", e.windows[:])
	if err != nil {
		return err
	}

	// Let the lease sweeps run: DefaultTopicTTL epochs plus slack. The
	// survivors keep renewing underneath; the victim cannot.
	sc.c.Clock.RunFor(sim.Time(nameservice.DefaultTopicTTL+3) * 1000 * sc.poll)

	fmt.Printf("flipcsim -gateway: %d nodes, %d gateways, %d clients each, poll %v, gap %v\n",
		o.nodes, nGateways, o.clients, o.poll, o.gap)
	if err := e.checkSweep(victim, o.clients); err != nil {
		return err
	}
	if err := e.checkFraming(o.clients); err != nil {
		return err
	}
	if o.msgs >= 32 {
		if err := e.checkBackpressure(); err != nil {
			return err
		}
	}
	if err := reportIsolation(e.names, before, after, victim); err != nil {
		return err
	}
	fmt.Println("isolation: ok (surviving gateways unperturbed by the kill)")
	return nil
}

func newEdge(sc *scenario) (*edge, error) {
	e := &edge{reg: nameservice.NewTopicRegistry(), names: make([]string, nGateways)}
	dir := topic.LocalDirectory{R: e.reg}
	var err error
	for g := range e.muxes {
		e.names[g] = fmt.Sprintf("gw-%d", g)
		e.muxes[g], err = gateway.NewMux(sc.c.Domains[g], gateway.Config{
			Name:         e.names[g],
			Dir:          dir,
			InboxBuffers: sc.o.window,
			ClientQueue:  8,
			ThrottleAt:   8,
		})
		if err != nil {
			return nil, err
		}
		e.alive[g] = true
	}

	// Clients: o.clients per gateway, all subscribed to "ctl.*" on the
	// control class. Client 0 of gateway 0 is the laggard: it drains
	// two hundred times slower than its queue fills, so the bounded
	// queue must shed with counted drops and throttles.
	for g := range e.muxes {
		for i := 0; i < sc.o.clients; i++ {
			cl := &simClient{c: e.muxes[g].Attach(), measure: true}
			for _, fr := range []gateway.Frame{
				{Op: gateway.OpHello, Ver: 1, Name: fmt.Sprintf("c%d-%d", g, i)},
				{Op: gateway.OpSub, Class: uint8(topic.Control), Name: "ctl.*"},
			} {
				if err := e.sendFrame(g, cl.c, fr); err != nil {
					return nil, err
				}
			}
			if b, ok := cl.c.PopOut(); ok {
				return nil, fmt.Errorf("client %d/%d refused at setup: % x", g, i, b)
			}
			e.clients[g] = append(e.clients[g], cl)
			e.windows[g] = append(e.windows[g], &cl.lat)
		}
	}
	e.laggard = e.clients[0][0]
	e.laggard.measure = false
	if n, want := e.reg.PresenceCount(), nGateways*sc.o.clients; n != want {
		return nil, fmt.Errorf("presence after setup: %d, want %d", n, want)
	}
	if n := e.reg.PatternCount(); n != nGateways {
		return nil, fmt.Errorf("pattern pairs after setup: %d, want %d", n, nGateways)
	}

	// Nobody subscribes to "ctl.rate" exactly: a pattern-only topic.
	pub, err := topic.NewPublisher(sc.c.Domains[nGateways], dir, topic.PublisherConfig{
		Topic: "ctl.rate", Class: topic.Control, Window: sc.o.window, RefreshEvery: 8,
	})
	if err != nil {
		return nil, err
	}
	if n := pub.PatternSubscribers(); n != nGateways {
		return nil, fmt.Errorf("pattern plan: %d gateways, want %d", n, nGateways)
	}
	e.ctl = sc.newStream(pub)

	// Tickers on the virtual clock: gateway pumps every poll,
	// housekeeping (lease renewal, saturation probe) every 200 polls,
	// registry sweep epochs every 1000 polls — a dead gateway's leases
	// expire after DefaultTopicTTL missed sweeps with no other party
	// lifting a finger. Then the client drain loops.
	for g := range e.muxes {
		g := g
		sc.c.Clock.NewTicker(sc.poll, func() {
			if e.alive[g] {
				e.muxes[g].Pump()
			}
		})
		sc.c.Clock.NewTicker(200*sc.poll, func() {
			if e.alive[g] {
				e.muxes[g].Housekeeping()
			}
		})
	}
	sc.c.Clock.NewTicker(1000*sc.poll, func() { e.reg.Advance() })
	for g := range e.clients {
		for _, cl := range e.clients[g] {
			cl := cl
			period := sc.poll
			if cl == e.laggard {
				period = 200 * sc.poll
			}
			sc.c.Clock.NewTicker(period, func() { e.drain(cl) })
		}
	}
	return e, nil
}

// sendFrame pushes one request across the framing boundary: encode,
// re-scan (exactly what the TCP reader does), dispatch.
func (e *edge) sendFrame(g int, cl *gateway.Client, fr gateway.Frame) error {
	enc, err := gateway.AppendFrame(nil, fr)
	if err != nil {
		return err
	}
	body, err := gateway.NewScanner(bytes.NewReader(enc)).Next()
	if err != nil {
		return err
	}
	e.muxes[g].HandleFrame(cl, body)
	return nil
}

// drain decodes every popped frame back through the scanner — the
// receive half of the framing boundary.
func (e *edge) drain(cl *simClient) {
	for {
		b, ok := cl.c.PopOut()
		if !ok {
			return
		}
		body, err := gateway.NewScanner(bytes.NewReader(b)).Next()
		if err != nil {
			fatal(fmt.Errorf("unscannable frame from gateway: %v", err))
		}
		fr, err := gateway.DecodeBody(body)
		if err != nil {
			fatal(fmt.Errorf("undecodable frame from gateway: %v", err))
		}
		if fr.Op != gateway.OpDeliver {
			cl.other++
			continue
		}
		cl.decoded++
		if l, ok := e.ctl.latency(fr.Payload); ok && cl.measure {
			cl.lat = append(cl.lat, l)
		}
	}
}

// quiet returns a settle condition: the edge ledgers have stopped
// moving between two looks and every queue has drained (the laggard
// needs whole drain periods).
func (e *edge) quiet() func() bool {
	last := ^uint64(0)
	return func() bool {
		var cur uint64
		var queued int
		for g, m := range e.muxes {
			st := m.Stats()
			cur += st.Received + st.Matched
			for _, cl := range e.clients[g] {
				cur += cl.decoded
				queued += cl.c.Queued()
			}
		}
		still := queued == 0 && cur == last
		last = cur
		return still
	}
}

// checkSweep is zero stranded presence: the victim's clients are gone
// from the registry, the survivors' full populations remain.
func (e *edge) checkSweep(victim, perGateway int) error {
	byGW := e.reg.PresenceByGateway()
	for g, name := range e.names {
		switch n := byGW[name]; {
		case g == victim && n != 0:
			return fmt.Errorf("%d presence entries stranded for dead %s after lease sweep", n, name)
		case g != victim && n != perGateway:
			return fmt.Errorf("surviving %s lost presence across the sweep: %d of %d", name, n, perGateway)
		}
	}
	if n, want := e.reg.PresenceCount(), (nGateways-1)*perGateway; n != want {
		return fmt.Errorf("registry presence %d, want %d", n, want)
	}
	if n := e.reg.PatternCount(); n != nGateways-1 {
		return fmt.Errorf("registry pattern pairs %d after sweep, want %d", n, nGateways-1)
	}
	fmt.Printf("lease sweep: %s fully expired (presence %d, patterns %d; survivors intact)\n",
		e.names[victim], byGW[e.names[victim]], e.reg.PatternCount())
	return nil
}

// checkFraming is conservation across the client framing boundary, per
// gateway: the framing law balances with nothing left queued, and the
// clients' own decode count agrees exactly with the mux's delivered
// ledger. Holds for the victim too — its counters just froze.
func (e *edge) checkFraming(perGateway int) error {
	for g, m := range e.muxes {
		name, st := e.names[g], m.Stats()
		var decoded, other uint64
		var clients []*gateway.Client
		for _, cl := range e.clients[g] {
			decoded += cl.decoded
			other += cl.other
			clients = append(clients, cl.c)
		}
		l := gateway.FramingLaw(m, clients...)
		fmt.Printf("%s: received %d matched %d -> decoded %d dropped %d throttled %d (inbox drops %d)\n",
			name, st.Received, l.Matched, decoded, l.Dropped, l.Throttled, m.InboxDrops(int(topic.Control)))
		if other != 0 {
			return fmt.Errorf("%s clients decoded %d non-deliver frames", name, other)
		}
		if l.Queued != 0 {
			return fmt.Errorf("%s still holds %d queued frames after quiesce", name, l.Queued)
		}
		if decoded != l.Delivered {
			return fmt.Errorf("%s framing boundary drifted: clients decoded %d, mux delivered %d", name, decoded, l.Delivered)
		}
		if err := l.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if st.Matched != st.Received*uint64(perGateway) {
			return fmt.Errorf("%s wildcard fanout short: matched %d of received %d x %d clients",
				name, st.Matched, st.Received, perGateway)
		}
		if st.Unmatched != 0 || st.BadFrames != 0 {
			return fmt.Errorf("%s saw %d unmatched and %d bad frames", name, st.Unmatched, st.BadFrames)
		}
	}
	fmt.Println("conservation: ok across the framing boundary on every gateway")
	return nil
}

// checkBackpressure: the discipline fired on the laggard — counted,
// not silent — and only on the laggard.
func (e *edge) checkBackpressure() error {
	_, lagDrop, lagThr := e.laggard.c.Ledgers()
	if lagDrop == 0 || lagThr == 0 {
		return fmt.Errorf("laggard escaped the queue bound: dropped %d throttled %d", lagDrop, lagThr)
	}
	for g := range e.clients {
		for i, cl := range e.clients[g] {
			if _, dr, th := cl.c.Ledgers(); cl != e.laggard && (dr != 0 || th != 0) {
				return fmt.Errorf("client %d/%d took collateral loss from the laggard: dropped %d throttled %d", g, i, dr, th)
			}
		}
	}
	fmt.Printf("backpressure: laggard shed %d drops + %d throttles; zero collateral on its neighbors\n", lagDrop, lagThr)
	return nil
}
