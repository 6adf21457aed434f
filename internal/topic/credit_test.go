package topic

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// settle polls cond until it holds or the deadline passes.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drain consumes every waiting application message.
func drain(s *Subscriber) int {
	n := 0
	for {
		if _, _, ok := s.Receive(); !ok {
			return n
		}
		n++
	}
}

// handshake completes the credit handshake: the subscriber consumes the
// publisher's hello (re-advertising on the Renew cadence in case the
// first advertisement is lost) until the publisher reports the account
// live.
func handshake(t *testing.T, pub *Publisher, subs ...*Subscriber) {
	t.Helper()
	settle(t, "credit handshake", func() bool {
		for _, s := range subs {
			drain(s)
			if err := s.Renew(); err != nil {
				t.Fatal(err)
			}
		}
		return pub.CreditAdverts() == len(subs)
	})
}

// The tentpole loop end to end: hello handshake, credit spend-down, a
// stalled subscriber throttled (not dropped on), credits restoring the
// flow when it drains, and the Throttled ledger distinct from Dropped.
func TestCreditThrottlesStalledSubscriber(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	const window = 8
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, window, CreditConfig{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.CreditWindow() != window {
		t.Fatalf("initial window = %d, want %d (inbox bufs)", sub.CreditWindow(), window)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pub.Instrument(reg)
	sub.Instrument(reg)
	handshake(t, pub, sub)
	if sub.CtlReceived() == 0 {
		t.Fatal("no hello was filtered from the application stream")
	}
	if avail, w, ok := pub.CreditAvailable(sub.Addr()); !ok || w != window || avail != window {
		t.Fatalf("post-handshake account: avail %d window %d ok %v", avail, w, ok)
	}

	// Flowing phase: publish and drain; everything is sent, nothing
	// throttled or dropped anywhere.
	delivered := 0
	for i := 0; i < 50; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != 1 || res.Throttled != 0 || res.Dropped != 0 {
			t.Fatalf("flowing publish %d: %+v", i, res)
		}
		settle(t, "delivery", func() bool { delivered += drain(sub); return delivered == i+1 })
	}

	// Stall: the subscriber stops draining. The publisher spends the
	// advertised window down and then *throttles* — the subscriber's
	// inbox is never overrun, so its drop ledger stays clean.
	sent, throttled := 0, 0
	for i := 0; i < 3*window; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += res.Sent
		throttled += res.Throttled
		if res.Dropped != 0 {
			t.Fatalf("stalled publish dropped: %+v", res)
		}
	}
	if sent > window {
		t.Fatalf("sent %d into a stalled window of %d", sent, window)
	}
	if throttled != 3*window-sent {
		t.Fatalf("throttled %d, want %d", throttled, 3*window-sent)
	}
	if pub.Throttled() == 0 || pub.Dropped() != 0 {
		t.Fatalf("ledgers: throttled %d dropped %d", pub.Throttled(), pub.Dropped())
	}
	if n := pub.Throttles()[sub.Addr()]; n != uint64(throttled) {
		t.Fatalf("per-subscriber throttle account = %d, want %d", n, throttled)
	}
	if sub.Drops() != 0 {
		t.Fatalf("stalled subscriber dropped %d (credit failed to protect it)", sub.Drops())
	}

	// Drain: returned credits reopen the window.
	settle(t, "stalled frames", func() bool { delivered += drain(sub); return delivered == 50+sent })
	settle(t, "window reopening", func() bool {
		avail, _, ok := pub.CreditAvailable(sub.Addr())
		return ok && avail == window
	})
	res, err := pub.Publish([]byte("m"))
	if err != nil || res.Sent != 1 || res.Throttled != 0 {
		t.Fatalf("post-drain publish: %+v, %v", res, err)
	}
	settle(t, "final delivery", func() bool { delivered += drain(sub); return delivered == 50+sent+1 })

	// Conservation with the new term: every fanout either delivered,
	// counted at a drop ledger, or deliberately throttled.
	if err := FanoutLaw(pub, sub).Err(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[metrics.Name("flipc_topic_fanout_throttled_total", "topic", "t")]; got != uint64(throttled) {
		t.Fatalf("throttled counter = %d, want %d", got, throttled)
	}
	idx := fmt.Sprintf("%d", sub.Addr().Index())
	if got := snap.Gauges[metrics.Name("flipc_topic_credit_window", "topic", "t", "endpoint", idx)]; got != float64(window) {
		t.Fatalf("credit_window gauge = %v, want %d", got, window)
	}
}

// AIMD: a renewal interval that saw endpoint drops halves the advertised
// window; clean intervals grow it back by one.
func TestCreditWindowAdaptsToDrops(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	const window = 8
	sub, err := NewSubscriberCredit(subD, dir, "t", Bulk, 32, window, CreditConfig{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Credit-disabled publisher: fanout is never throttled, so a stalled
	// subscriber's inbox overruns and its drop ledger moves.
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Bulk})
	if err != nil {
		t.Fatal(err)
	}
	// Pace the publishes so the engine actually puts them on the wire
	// (a rapid burst just backpressures at the outbox, which is a
	// *publisher* drop, not the endpoint overrun this test needs).
	deadline := time.Now().Add(5 * time.Second)
	for sub.Drops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for endpoint drops")
		}
		if _, err := pub.Publish([]byte("m")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}

	if err := sub.Renew(); err != nil { // dirty interval: halve
		t.Fatal(err)
	}
	if got := sub.CreditWindow(); got != window/2 {
		t.Fatalf("window after drop epoch = %d, want %d", got, window/2)
	}
	drain(sub)
	if err := sub.Renew(); err != nil { // clean interval: +1
		t.Fatal(err)
	}
	if got := sub.CreditWindow(); got != window/2+1 {
		t.Fatalf("window after clean interval = %d, want %d", got, window/2+1)
	}
}

// Satellite regression: Evict racing a concurrent Publish. The
// publisher mutex must keep the fanout loop, the ledgers, and the
// credit state consistent — run under -race this also proves the
// accessors are safe from other goroutines. The accounting invariant:
// the running result totals equal the publisher's ledgers exactly (no
// double counting on the eviction path).
func TestEvictDuringPublish(t *testing.T) {
	fabric := interconnect.NewFabric(2048)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	var subs []*Subscriber
	for i := 0; i < 4; i++ {
		s, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, 16, CreditConfig{Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	// RefreshEvery high enough that the plan never rebuilds mid-test and
	// resurrects an evicted subscriber.
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true, RefreshEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, pub, subs...)

	evicted := make(chan core.Addr, len(subs)-1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the quarantine housekeeping stand-in
		defer wg.Done()
		for _, s := range subs[1:] {
			time.Sleep(200 * time.Microsecond)
			if pub.Evict(s.Addr()) {
				evicted <- s.Addr()
			}
		}
	}()

	var sent, dropped, throttled uint64
	for i := 0; i < 2000; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += uint64(res.Sent)
		dropped += uint64(res.Dropped)
		throttled += uint64(res.Throttled)
		for _, s := range subs {
			drain(s)
		}
	}
	wg.Wait()
	close(evicted)
	n := 0
	for range evicted {
		n++
	}
	if n != len(subs)-1 {
		t.Fatalf("evicted %d of %d planned subscribers", n, len(subs)-1)
	}
	if pub.Subscribers() != 1 {
		t.Fatalf("plan size after evictions = %d", pub.Subscribers())
	}

	// Exactly-once accounting across the race.
	if pub.Sent() != sent || pub.Dropped() != dropped || pub.Throttled() != throttled {
		t.Fatalf("ledgers diverged from results: sent %d/%d dropped %d/%d throttled %d/%d",
			pub.Sent(), sent, pub.Dropped(), dropped, pub.Throttled(), throttled)
	}
	var perSubDrops, perSubThrottles uint64
	for _, v := range pub.Drops() {
		perSubDrops += v
	}
	for _, v := range pub.Throttles() {
		perSubThrottles += v
	}
	if perSubDrops != dropped || perSubThrottles != throttled {
		t.Fatalf("per-subscriber accounts diverged: drops %d/%d throttles %d/%d",
			perSubDrops, dropped, perSubThrottles, throttled)
	}
	// An evicted subscriber's credit account died with the plan entry.
	if _, _, ok := pub.CreditAvailable(subs[1].Addr()); ok {
		t.Fatal("evicted subscriber still has a live credit account")
	}
}

// Satellite regression: a renewal after the subscriber's endpoint moved
// (quarantine recovery re-allocates the slot under a new generation)
// must re-read the current address — renewing the address captured at
// subscribe time would resurrect a stale route.
func TestRenewAfterRebindDropsStaleAddress(t *testing.T) {
	fabric := interconnect.NewFabric(256)
	d := newDomain(t, fabric, 0)
	reg := nameservice.NewTopicRegistry()
	dir := LocalDirectory{R: reg}

	s, err := NewSubscriber(d, dir, "t", Normal, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	old := s.Addr()
	if err := s.Rebind(); err != nil {
		t.Fatal(err)
	}
	cur := s.Addr()
	if cur == old {
		t.Fatal("rebind did not move the endpoint")
	}

	// The directory holds exactly the current address; the stale one was
	// unsubscribed, not left to age out beside its replacement.
	snap, ok := reg.Snapshot("t")
	if !ok {
		t.Fatal("topic vanished")
	}
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != cur {
		t.Fatalf("directory after rebind: %+v, want exactly %v", snap.Subs, cur)
	}

	// Renewals keep the lease alive at the current address only.
	for i := 0; i < 2*nameservice.DefaultTopicTTL; i++ {
		reg.Advance()
		if err := s.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ = reg.Snapshot("t")
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != cur {
		t.Fatalf("directory after renewals: %+v", snap.Subs)
	}

	// And a publisher reaches the subscriber at its new home.
	pub, err := NewPublisher(d, dir, PublisherConfig{Topic: "t", Class: Normal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	settle(t, "delivery at rebound address", func() bool { return drain(s) == 1 })
}

// Cumulative credit heals a feedback outage. While the subscriber's
// node is partitioned from the publisher's, every advertisement it
// returns is lost in flight: the publisher spends its window down and
// throttles, though the subscriber drained everything. After the heal
// one Renew re-advertises the cumulative disposed count, which restores
// the full window; the subscriber's endpoint never dropped a frame.
func TestWindowSurvivesCreditOutage(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Wrap(tr, faultinject.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	subD, err := core.NewDomain(core.Config{Node: 1, MessageSize: 128, NumBuffers: 256}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(subD.Close)
	subD.Start()

	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	const window = 8
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, window, CreditConfig{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true})
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, pub, sub)

	// Outage: the subscriber's credit returns are swallowed, so the
	// publisher throttles once the window is spent.
	inj.Partition(0, true)
	sent, delivered := 0, 0
	for throttled := 0; throttled == 0; {
		if sent > 2*window {
			t.Fatalf("sent %d into a window of %d without a throttle", sent, window)
		}
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += res.Sent
		throttled += res.Throttled
		delivered += drain(sub)
	}
	if sent != window {
		t.Fatalf("sent %d before the first throttle, want the window %d", sent, window)
	}
	settle(t, "outage deliveries", func() bool { delivered += drain(sub); return delivered == sent })
	// Every advert those deliveries triggered has left the subscriber's
	// engine into the partition, so none can slip through after the heal.
	settle(t, "outage adverts sent", sub.credit.out.Flush)
	if avail, _, _ := pub.CreditAvailable(sub.Addr()); avail != 0 {
		t.Fatalf("credit available during the outage = %d, want 0 (advertisements lost)", avail)
	}

	// Heal: one cumulative advertisement repairs everything lost.
	inj.Heal()
	if err := sub.Renew(); err != nil {
		t.Fatal(err)
	}
	settle(t, "window after heal and renew", func() bool {
		avail, w, ok := pub.CreditAvailable(sub.Addr())
		return ok && w == window && avail == window
	})
	if sub.Drops() != 0 {
		t.Fatalf("subscriber endpoint dropped %d", sub.Drops())
	}
	if inj.Stats().Partitioned == 0 {
		t.Fatal("no advertisement was lost: the test exercised no outage")
	}
	if err := FanoutLaw(pub, sub).Err(); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: seeded frame loss on the credit channel. The
// subscriber's outgoing transport (which carries only credit
// advertisements) drops half its frames; cumulative framing plus the
// stall-resync escape hatch must keep traffic flowing, and at
// quiescence the publisher's ledger must agree *exactly* with the
// subscriber's disposed count — no credit is ever created or destroyed
// by the loss.
func TestCreditConservedUnderFrameLoss(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)

	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Wrap(tr, faultinject.Config{Seed: 42, DropRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	subD, err := core.NewDomain(core.Config{Node: wire.NodeID(1), MessageSize: 128, NumBuffers: 256}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(subD.Close)
	subD.Start()

	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	const window = 8
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, window, CreditConfig{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true, CreditStall: 4})
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, pub, sub)

	// Traffic through sustained 50% credit loss: drain as we go, renew
	// on a cadence. Publishing must keep making progress — cumulative
	// advertisements heal every lost frame, and a fully wedged account
	// is forgiven by the stall resync.
	var sent, throttled uint64
	delivered := 0
	for i := 0; i < 400; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += uint64(res.Sent)
		throttled += uint64(res.Throttled)
		delivered += drain(sub)
		if i%16 == 0 {
			if err := sub.Renew(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sent == 0 {
		t.Fatal("no progress through credit loss")
	}
	if inj.Stats().Dropped == 0 {
		t.Fatal("injector dropped nothing — the test exercised no loss")
	}

	// Quiescence: everything sent is eventually disposed of, and a
	// surviving advertisement realigns the publisher's account to
	// exactly zero outstanding. Conservation is exact: charged ==
	// disposed, loss only ever deferred the accounting.
	settle(t, "all frames disposed", func() bool {
		delivered += drain(sub)
		return uint64(delivered)+sub.Drops() >= sent
	})
	settle(t, "account realignment", func() bool {
		delivered += drain(sub)
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		avail, w, ok := pub.CreditAvailable(sub.Addr())
		return ok && w == sub.CreditWindow() && avail == w
	})
	// The subscriber's ledger closes: every application frame was
	// delivered or counted at the endpoint, nothing unaccounted.
	if uint64(delivered)+sub.Drops() != sent {
		t.Fatalf("conservation: delivered %d + drops %d != sent %d", delivered, sub.Drops(), sent)
	}
	t.Logf("sent %d throttled %d delivered %d drops %d resyncs %d creditFramesLost %d",
		sent, throttled, delivered, sub.Drops(), pub.CreditResyncs(), inj.Stats().Dropped)
}
