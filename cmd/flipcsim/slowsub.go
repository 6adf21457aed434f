package main

import (
	"fmt"

	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// slowsubLeg is one full cluster run: a baseline phase with only the
// fast subscriber, then a contended phase where a slow subscriber
// (draining at 1/slowFactor of the publish rate) joins the topic.
type slowsubLeg struct {
	baselineP99 float64 // fast subscriber one-way p99, no slow peer (µs)
	contendP99  float64 // fast subscriber one-way p99 beside the slow peer (µs)
	slowDrops   uint64  // slow subscriber inbox overruns
	slowRecv    uint64  // slow subscriber deliveries
	throttled   uint64  // publisher throttles (credit leg only)
}

// runSlowsub runs the scenario twice — credit off, then credit on — and
// checks the credit leg's guarantees: the slow subscriber's inbox drops
// fall to zero (the overrun converts into publisher-side throttles,
// deferral instead of loss; topic.CreditLaw) while the fast
// subscriber's tail latency stays within 1.2x of its no-slow-peer
// baseline.
func runSlowsub(o opts) error {
	if o.slowFactor < 2 {
		return fmt.Errorf("-slowsub needs a slow factor >= 2")
	}
	uncredited, err := slowsubOnce(o, false)
	if err != nil {
		return fmt.Errorf("uncredited leg: %w", err)
	}
	credited, err := slowsubOnce(o, true)
	if err != nil {
		return fmt.Errorf("credited leg: %w", err)
	}

	fmt.Printf("flipcsim -slowsub: %d publishes/phase, gap %v, slow subscriber drains 1/%d, window %d\n",
		o.msgs, o.gap, o.slowFactor, o.window)
	fmt.Printf("%-12s %14s %14s %12s %12s %12s\n",
		"leg", "fast p99 µs", "vs baseline", "slow recv", "slow drops", "throttled")
	for _, l := range []struct {
		name string
		leg  *slowsubLeg
	}{{"credit-off", &uncredited}, {"credit-on", &credited}} {
		fmt.Printf("%-12s %14.2f %13.2fx %12d %12d %12d\n",
			l.name, l.leg.contendP99, l.leg.contendP99/l.leg.baselineP99,
			l.leg.slowRecv, l.leg.slowDrops, l.leg.throttled)
	}

	if uncredited.slowDrops == 0 {
		return fmt.Errorf("uncredited leg lost nothing — the slow subscriber was not actually overrun")
	}
	if credited.throttled == 0 {
		return fmt.Errorf("credited leg throttled nothing — credit never engaged")
	}
	ratio := credited.contendP99 / credited.baselineP99
	if ratio > 1.2 {
		return fmt.Errorf("fast subscriber p99 degraded %.2fx beside the slow peer (bound: 1.2x)", ratio)
	}
	fmt.Printf("slowsub: ok (credited drops %d -> throttles %d; fast p99 %.2fx baseline, bound 1.2x)\n",
		credited.slowDrops, credited.throttled, ratio)
	return nil
}

func slowsubOnce(o opts, credit bool) (slowsubLeg, error) {
	var leg slowsubLeg
	o.nodes = 3 // 0 publisher, 1 fast subscriber, 2 slow subscriber
	sc, err := newScenario(o, simcluster.Config{NumBuffers: 4*o.window + 32})
	if err != nil {
		return leg, err
	}
	defer sc.close()

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	newSub := func(node int) (*topic.Subscriber, error) {
		if credit {
			return topic.NewSubscriberCredit(sc.c.Domains[node], dir, "feed", topic.Normal,
				o.window, o.window)
		}
		return topic.NewSubscriber(sc.c.Domains[node], dir, "feed", topic.Normal, o.window, o.window)
	}
	fast, err := newSub(1)
	if err != nil {
		return leg, err
	}
	pub, err := topic.NewPublisher(sc.c.Domains[0], dir, topic.PublisherConfig{
		Topic: "feed", Class: topic.Normal, Window: o.window,
		RefreshEvery: 16, Credit: credit, CreditBuffers: o.window,
	})
	if err != nil {
		return leg, err
	}
	feed := sc.newStream(pub, fast)
	sc.pump(feed)

	// Handshake before traffic: the hello must be consumed and answered
	// so the baseline phase runs fully credited.
	waitAdverts := func(n int) error {
		if !credit {
			return nil
		}
		deadline := sc.c.Clock.Now() + 10000*sc.poll
		for pub.CreditAdverts() < n {
			if sc.c.Clock.Now() > deadline {
				return fmt.Errorf("credit handshake incomplete (%d/%d adverts)", pub.CreditAdverts(), n)
			}
			sc.c.Clock.RunFor(100 * sc.poll)
		}
		return nil
	}
	if err := waitAdverts(1); err != nil {
		return leg, err
	}

	// Phase A: the fast subscriber alone — the no-slow-peer baseline.
	sc.settleUntil(sc.phase(feed.publish), func() bool { return fast.Received()+fast.Drops() >= pub.Sent() })
	phaseAPub := pub.Published()
	base, err := summarize(feed.lat...)
	if err != nil {
		return leg, fmt.Errorf("baseline phase: %w", err)
	}
	leg.baselineP99 = base.P99

	// The slow subscriber joins, draining one message per slowFactor
	// publish periods — a consumer an order of magnitude behind the
	// topic's offered rate.
	slow, err := newSub(2)
	if err != nil {
		return leg, err
	}
	slowIdx := feed.join(slow)
	sc.c.Clock.NewTicker(sim.Time(o.slowFactor)*sc.gap, func() { feed.receive(slowIdx) })
	// Renewals on a coarse cadence re-advertise every grant, healing a
	// lost credit frame, and keep the lease alive, as a deployment's
	// housekeeping loop would.
	sc.c.Clock.NewTicker(100*sc.gap, func() {
		if err := feed.renew(); err != nil {
			fatal(err)
		}
	})
	if err := pub.Refresh(); err != nil {
		return leg, err
	}
	if err := waitAdverts(2); err != nil {
		return leg, err
	}

	// Phase B: same publish cadence beside the slow peer. The slow
	// subscriber empties its inbox one drain period per frame, so the
	// settle gets four times the usual budget.
	sc.c.Clock.RunUntil(sc.phase(feed.publish))
	disposed := func() bool {
		return fast.Received()+fast.AppDrops()+slow.Received()+slow.AppDrops() >= pub.Sent()
	}
	for n := 0; n < 4 && !sc.await(disposed); n++ {
	}

	// Conservation, with the throttle term: every fanout slot is
	// delivered, counted at a drop ledger, or deliberately throttled. The
	// slow subscriber was never owed the phase-A publishes.
	law := feed.law()
	law.Owed -= phaseAPub
	if err := law.Err(); err != nil {
		return leg, err
	}
	if credit {
		// Overrun converts to throttles, not drops: the credit invariant.
		for _, s := range feed.subs {
			if err := topic.CreditLaw(s, pub); err != nil {
				return leg, err
			}
		}
	}

	cont, err := summarize(feed.lat[0]) // the fast subscriber's window only
	if err != nil {
		return leg, fmt.Errorf("contended phase: %w", err)
	}
	leg.contendP99 = cont.P99
	leg.slowDrops = slow.Drops()
	leg.slowRecv = slow.Received()
	leg.throttled = law.Throttled
	return leg, nil
}
