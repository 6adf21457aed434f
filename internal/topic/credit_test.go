package topic

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
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

// newCreditPub starts a credited publisher on topic "t" from its own
// node.
func newCreditPub(t *testing.T, fabric *interconnect.Fabric, dir Directory, node wire.NodeID) *Publisher {
	t.Helper()
	pub, err := NewPublisher(newDomain(t, fabric, node), dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// stall publishes rounds frames from each publisher to subscribers that
// are not draining, and returns how many were sent and throttled. The
// grants keep every send inside the outbox window, so none may drop.
func stall(t *testing.T, rounds int, pubs ...*Publisher) (sent, throttled int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, pub := range pubs {
			res, err := pub.Publish([]byte("m"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Dropped != 0 {
				t.Fatalf("publish dropped at the outbox: %+v", res)
			}
			sent += res.Sent
			throttled += res.Throttled
		}
	}
	return sent, throttled
}

// topicLaw is FanoutLaw for several publishers feeding the same
// subscribers.
func topicLaw(pubs []*Publisher, subs ...*Subscriber) FanoutLedger {
	l := FanoutLaw(pubs[0], subs...)
	for _, p := range pubs[1:] {
		m := FanoutLaw(p)
		l.Published += m.Published
		l.Owed += m.Published * uint64(len(subs))
		l.PubDropped += m.PubDropped
		l.Throttled += m.Throttled
	}
	return l
}

// The tentpole loop end to end: hello handshake, credit spend-down, a
// stalled subscriber throttled (not dropped on), credits restoring the
// flow when it drains, and the Throttled ledger distinct from Dropped.
func TestCreditThrottlesStalledSubscriber(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	const posted, grant = 8, 8 - ctlReserve
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, posted)
	if err != nil {
		t.Fatal(err)
	}
	if sub.CreditWindow() != grant {
		t.Fatalf("credit window = %d, want %d (posted buffers less the control reserve)", sub.CreditWindow(), grant)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pub.Instrument(reg)
	sub.Instrument(reg)
	handshake(t, pub, sub)
	if sub.Received() != 0 {
		t.Fatal("a hello reached the application stream")
	}
	if avail, w, ok := pub.CreditAvailable(sub.Addr()); !ok || w != grant || avail != grant {
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

	// Stall: the subscriber stops draining. The publisher spends its
	// grant down and then *throttles* — the subscriber's inbox is never
	// overrun, so its drop ledger stays clean.
	sent, throttled := stall(t, 3*posted, pub)
	if sent > grant {
		t.Fatalf("sent %d into a stalled grant of %d", sent, grant)
	}
	if throttled != 3*posted-sent {
		t.Fatalf("throttled %d, want %d", throttled, 3*posted-sent)
	}
	if pub.Throttled() == 0 || pub.Dropped() != 0 {
		t.Fatalf("ledgers: throttled %d dropped %d", pub.Throttled(), pub.Dropped())
	}
	if n := pub.Throttled(); n != uint64(throttled) {
		t.Fatalf("throttle ledger = %d, want %d", n, throttled)
	}
	if sub.Drops() != 0 {
		t.Fatalf("stalled subscriber dropped %d (credit failed to protect it)", sub.Drops())
	}

	// Drain: returned credits reopen the window.
	settle(t, "stalled frames", func() bool { delivered += drain(sub); return delivered == 50+sent })
	settle(t, "window reopening", func() bool {
		avail, _, ok := pub.CreditAvailable(sub.Addr())
		return ok && avail == grant
	})
	res, err := pub.Publish([]byte("m"))
	if err != nil || res.Sent != 1 || res.Throttled != 0 {
		t.Fatalf("post-drain publish: %+v, %v", res, err)
	}
	settle(t, "final delivery", func() bool { delivered += drain(sub); return delivered == 50+sent+1 })

	// Conservation with the new term: every fanout either delivered,
	// counted at a drop ledger, or deliberately throttled. And the
	// credit invariant.
	if err := FanoutLaw(pub, sub).Err(); err != nil {
		t.Fatal(err)
	}
	if err := CreditLaw(sub, pub); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[metrics.Name("flipc_topic_fanout_throttled_total", "topic", "t")]; got != uint64(throttled) {
		t.Fatalf("throttled counter = %d, want %d", got, throttled)
	}
	idx := fmt.Sprintf("%d", sub.Addr().Index())
	if got := snap.Gauges[metrics.Name("flipc_topic_credit_window", "topic", "t", "endpoint", idx)]; got != float64(grant) {
		t.Fatalf("credit_window gauge = %v, want %d", got, grant)
	}
}

// Two credited publishers and a subscriber with 8 posted buffers that
// stops draining. Granting each publisher the whole inbox let the 16
// frames they offer overrun it: 8 endpoint drops. The grants now share
// posted − ctlReserve, so nothing is dropped and the excess is
// throttled at the publishers — first by a newcomer granted only free
// capacity, then, once the subscriber drains, by an even split.
func TestCreditTwoPublishers(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	const posted, grant = 8, 8 - ctlReserve
	sub, err := NewSubscriberCredit(newDomain(t, fabric, 0), dir, "t", Normal, 32, posted)
	if err != nil {
		t.Fatal(err)
	}
	pubs := []*Publisher{newCreditPub(t, fabric, dir, 1), newCreditPub(t, fabric, dir, 2)}
	for _, pub := range pubs {
		handshake(t, pub, sub)
	}

	delivered, offered := 0, 0
	for round := 0; round < 2; round++ {
		sent, throttled := stall(t, posted, pubs...)
		offered += sent
		if sent != grant || throttled != 2*posted-grant {
			t.Fatalf("round %d: sent %d, throttled %d; want the grant %d sent and the rest throttled",
				round, sent, throttled, grant)
		}
		settle(t, "stalled frames", func() bool {
			delivered += drain(sub)
			return uint64(delivered)+sub.AppDrops() >= uint64(offered)
		})
		if sub.AppDrops() != 0 {
			t.Fatalf("round %d: %d endpoint drops", round, sub.AppDrops())
		}
		// The drained grants re-split evenly between the publishers.
		settle(t, "even split", func() bool {
			if err := sub.Renew(); err != nil {
				t.Fatal(err)
			}
			for _, pub := range pubs {
				if avail, _, _ := pub.CreditAvailable(sub.Addr()); avail != grant/2 {
					return false
				}
			}
			return true
		})
	}
	if err := CreditLaw(sub, pubs...); err != nil {
		t.Fatal(err)
	}
	if err := topicLaw(pubs, sub).Err(); err != nil {
		t.Fatal(err)
	}
}

// A third publisher joins while the subscriber is stalled with its
// whole grant out. The newcomer's hello waits in the reserved buffers,
// and until the subscriber answers it every publish to it is throttled:
// no endpoint drop. Once the subscriber drains, the older grants shrink
// to the new share as they are used and the newcomer is granted what
// they free.
func TestCreditJoinUnderStall(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	const posted, grant = 8, 8 - ctlReserve
	sub, err := NewSubscriberCredit(newDomain(t, fabric, 0), dir, "t", Normal, 32, posted)
	if err != nil {
		t.Fatal(err)
	}
	pubs := []*Publisher{newCreditPub(t, fabric, dir, 1), newCreditPub(t, fabric, dir, 2)}
	for _, pub := range pubs {
		handshake(t, pub, sub)
	}
	if sent, _ := stall(t, posted, pubs...); sent != grant {
		t.Fatalf("sent %d, want the whole grant %d out", sent, grant)
	}

	late := newCreditPub(t, fabric, dir, 3)
	if sent, throttled := stall(t, posted, late); sent != 0 || throttled != posted {
		t.Fatalf("unanswered publisher sent %d, throttled %d of %d", sent, throttled, posted)
	}
	pubs = append(pubs, late)

	delivered := 0
	settle(t, "newcomer granted", func() bool {
		delivered += drain(sub)
		stall(t, 1, pubs...)
		return late.Sent() > 0
	})
	settle(t, "quiescence", func() bool {
		delivered += drain(sub)
		var sent uint64
		for _, pub := range pubs {
			sent += pub.Sent()
		}
		return uint64(delivered)+sub.AppDrops() >= sent
	})
	if sub.AppDrops() != 0 || sub.CtlDrops() != 0 {
		t.Fatalf("endpoint drops: %d application, %d control", sub.AppDrops(), sub.CtlDrops())
	}
	if err := CreditLaw(sub, pubs...); err != nil {
		t.Fatal(err)
	}
	if err := topicLaw(pubs, sub).Err(); err != nil {
		t.Fatal(err)
	}
}

// More publishers than the grantable buffers divide evenly among, or
// than there are grantable buffers at all. Each free buffer goes to the
// publisher with the least outstanding, ties rotating, so while the
// subscriber drains every publisher is granted and sends: none waits
// forever behind the others' top-ups, and nothing is dropped.
func TestCreditEveryPublisherGranted(t *testing.T) {
	for _, tc := range []struct{ posted, pubs int }{{8, 4}, {4, 3}} {
		t.Run(fmt.Sprintf("posted%d-pubs%d", tc.posted, tc.pubs), func(t *testing.T) {
			fabric := interconnect.NewFabric(1024)
			dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
			sub, err := NewSubscriberCredit(newDomain(t, fabric, 0), dir, "t", Normal, 32, tc.posted)
			if err != nil {
				t.Fatal(err)
			}
			var pubs []*Publisher
			for i := range tc.pubs {
				pub := newCreditPub(t, fabric, dir, wire.NodeID(i+1))
				handshake(t, pub, sub)
				pubs = append(pubs, pub)
			}
			delivered := 0
			settle(t, "every publisher sending", func() bool {
				delivered += drain(sub)
				stall(t, 1, pubs...)
				for _, pub := range pubs {
					if pub.Sent() < uint64(tc.posted) {
						return false
					}
				}
				return true
			})
			settle(t, "quiescence", func() bool {
				delivered += drain(sub)
				var sent uint64
				for _, pub := range pubs {
					sent += pub.Sent()
				}
				return uint64(delivered)+sub.AppDrops() >= sent
			})
			if err := CreditLaw(sub, pubs...); err != nil {
				t.Fatal(err)
			}
			if err := topicLaw(pubs, sub).Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A publisher that joins while the subscriber is stalled sends it one
// hello per plan generation, however many refreshes it runs meanwhile.
// Re-sending on every refresh stacked hellos past ctlReserve into
// buffers granted to the handshaken publisher, whose frames were then
// dropped at the endpoint when it spent that grant.
func TestCreditHellosStayInReserve(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	const posted, grant = 8, 8 - ctlReserve
	sub, err := NewSubscriberCredit(newDomain(t, fabric, 0), dir, "t", Normal, 32, posted)
	if err != nil {
		t.Fatal(err)
	}
	pub := newCreditPub(t, fabric, dir, 1) // handshaken, its whole grant unspent
	handshake(t, pub, sub)

	const refreshEvery = 4
	late, err := NewPublisher(newDomain(t, fabric, 2), dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true, RefreshEvery: refreshEvery})
	if err != nil {
		t.Fatal(err)
	}
	if sent, _ := stall(t, 3*refreshEvery+1, late); sent != 0 {
		t.Fatalf("unanswered publisher sent %d", sent)
	}
	settle(t, "hellos on the wire", late.Outbox().Flush)
	if sent, _ := stall(t, posted, pub); sent != grant {
		t.Fatalf("idle publisher sent %d, want its grant %d", sent, grant)
	}
	settle(t, "grant on the wire", pub.Outbox().Flush)

	pubs := []*Publisher{pub, late}
	delivered := 0
	settle(t, "newcomer handshake", func() bool {
		delivered += drain(sub)
		return late.CreditAdverts() == 1
	})
	settle(t, "quiescence", func() bool {
		delivered += drain(sub)
		return uint64(delivered)+sub.AppDrops() >= pub.Sent()+late.Sent()
	})
	if sub.AppDrops() != 0 || sub.CtlDrops() != 0 {
		t.Fatalf("endpoint drops: %d application, %d control", sub.AppDrops(), sub.CtlDrops())
	}
	if n := late.Outbox().Sent() - late.Sent(); n != 1 { // what its outbox sent that was not data
		t.Fatalf("newcomer sent %d hellos in one plan generation, want 1", n)
	}
	if err := CreditLaw(sub, pubs...); err != nil {
		t.Fatal(err)
	}
	if err := topicLaw(pubs, sub).Err(); err != nil {
		t.Fatal(err)
	}
}

// A hello lost between engines is not repeated on refresh; the
// CreditStall escape hatch re-sends it, as it re-probes a wedged grant,
// and counts the re-probe.
func TestCreditStallResendsLostHello(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	tr, err := fabric.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Wrap(tr, faultinject.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pubD, err := core.NewDomain(core.Config{Node: 0, MessageSize: 128, NumBuffers: 256}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pubD.Close)
	pubD.Start()

	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	sub, err := NewSubscriberCredit(newDomain(t, fabric, 1), dir, "t", Normal, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	inj.Partition(1, true)
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true, CreditStall: 4})
	if err != nil {
		t.Fatal(err)
	}
	settle(t, "hello lost", pub.Outbox().Flush)
	inj.Heal()
	if inj.Stats().Partitioned == 0 {
		t.Fatal("the hello was not lost")
	}
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	settle(t, "refresh sent", pub.Outbox().Flush)
	drain(sub)
	if n := pub.Outbox().Sent(); n != 1 { // the lost hello, and nothing since
		t.Fatalf("the outbox sent %d frames: a refresh in the same plan generation repeated the hello", n)
	}
	settle(t, "handshake after the re-sent hello", func() bool {
		stall(t, 1, pub)
		drain(sub)
		return pub.CreditAdverts() == 1
	})
	if pub.CreditResyncs() == 0 {
		t.Fatal("the re-sent hello was not counted as a re-probe")
	}
}

// CreditLaw names a topic mixing credited and uncredited parties: a
// frame without a known publisher prefix at a credit subscriber, and a
// subscriber that keeps no grants.
func TestCreditLawFlagsMixedTopic(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	sub, err := NewSubscriberCredit(newDomain(t, fabric, 0), dir, "t", Normal, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPublisher(newDomain(t, fabric, 1), dir, PublisherConfig{Topic: "t", Class: Normal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Publish([]byte("uncredited")); err != nil {
		t.Fatal(err)
	}
	settle(t, "uncredited frame", func() bool { return drain(sub) == 1 })
	if err := CreditLaw(sub); err == nil || !strings.Contains(err.Error(), "no known publisher") {
		t.Fatalf("credit law after an uncredited frame: %v", err)
	}
	plainSub, err := NewSubscriber(newDomain(t, fabric, 2), dir, "t", Normal, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := CreditLaw(plainSub); err == nil {
		t.Fatal("credit law applied to a subscriber without credit")
	}
}

// A publisher is credited or durable, not both: each prefixes its data
// frames, and a subscriber reads one prefix.
func TestPublisherCreditOrDurable(t *testing.T) {
	d := newIdleDomain(t, interconnect.NewFabric(64), 0)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	_, err := NewPublisher(d, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true,
		Log: newDurableLog(t, duralog.Options{NoSync: true})})
	if err == nil || !strings.Contains(err.Error(), "credited or durable") {
		t.Fatalf("credited durable publisher: err %v", err)
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
		s, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, 16)
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
	var perSubDrops uint64
	for _, v := range pub.Drops() {
		perSubDrops += v
	}
	if perSubDrops != dropped {
		t.Fatalf("per-subscriber drop accounts diverged: %d/%d", perSubDrops, dropped)
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
// returns is lost in flight: the publisher spends its grant down and
// throttles, though the subscriber drained everything. After the heal
// one Renew re-advertises the cumulative disposed count, which restores
// the full grant; the subscriber's endpoint never dropped a frame.
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
	const posted, grant = 8, 8 - ctlReserve
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, posted)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal, Credit: true})
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, pub, sub)

	// Outage: the subscriber's credit returns are swallowed, so the
	// publisher throttles once the grant is spent.
	inj.Partition(0, true)
	sent, delivered := 0, 0
	for throttled := 0; throttled == 0; {
		if sent > 2*posted {
			t.Fatalf("sent %d into a grant of %d without a throttle", sent, grant)
		}
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += res.Sent
		throttled += res.Throttled
		delivered += drain(sub)
	}
	if sent != grant {
		t.Fatalf("sent %d before the first throttle, want the grant %d", sent, grant)
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
	settle(t, "grant after heal and renew", func() bool {
		avail, w, ok := pub.CreditAvailable(sub.Addr())
		return ok && w == grant && avail == grant
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
	if err := CreditLaw(sub, pub); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: seeded frame loss on the credit channel. The
// subscriber's outgoing transport (which carries only credit
// advertisements) drops half its frames; cumulative framing plus the
// stall-resync escape hatch must keep traffic flowing, and at
// quiescence the publisher's ledger must agree *exactly* with the
// subscriber's disposed count — no credit is ever created or destroyed
// by the loss. The loop waits for each publish to leave the outbox
// before the next, so it exercises credit, not the outbox window.
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
	sub, err := NewSubscriberCredit(subD, dir, "t", Normal, 32, 8)
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
	const publishes = 400
	var sent, throttled uint64
	delivered := 0
	for i := 0; i < publishes; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		sent += uint64(res.Sent)
		throttled += uint64(res.Throttled)
		settle(t, "publish on the wire", pub.Outbox().Flush)
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
	if pub.Dropped() >= publishes/2 {
		t.Fatalf("the outbox refused %d of %d publishes: credit was not exercised", pub.Dropped(), publishes)
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
		return uint64(delivered)+sub.AppDrops() >= sent
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
	if uint64(delivered)+sub.AppDrops() != sent {
		t.Fatalf("conservation: delivered %d + drops %d != sent %d", delivered, sub.AppDrops(), sent)
	}
	t.Logf("sent %d throttled %d outbox-dropped %d delivered %d drops %d resyncs %d creditFramesLost %d",
		sent, throttled, pub.Dropped(), delivered, sub.AppDrops(), pub.CreditResyncs(), inj.Stats().Dropped)
}
