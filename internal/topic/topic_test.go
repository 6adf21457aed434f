package topic

import (
	"runtime"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/interconnect"
	"flipc/internal/israce"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

func newDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	d := newIdleDomain(t, fabric, node)
	d.Start()
	return d
}

// newIdleDomain is newDomain without the engine goroutine: nothing
// moves (or allocates) unless the test calls Poll.
func newIdleDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	tr, err := fabric.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: 128, NumBuffers: 256}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestClassMappings(t *testing.T) {
	if !(Control.EndpointPriority() > Normal.EndpointPriority() &&
		Normal.EndpointPriority() > Bulk.EndpointPriority()) {
		t.Fatal("endpoint priorities not ordered")
	}
	if !(Control.SchedPriority() > Normal.SchedPriority() &&
		Normal.SchedPriority() > Bulk.SchedPriority()) {
		t.Fatal("sched priorities not ordered")
	}
	for _, c := range []Class{Bulk, Normal, Control} {
		if got := ClassFromFlags(c.Flags()); got != c {
			t.Fatalf("class %v round-trips to %v", c, got)
		}
		if !c.Valid() {
			t.Fatalf("class %v invalid", c)
		}
	}
	if Class(7).Valid() {
		t.Fatal("class 7 valid")
	}
	if Control.String() != "control" {
		t.Fatalf("String = %q", Control.String())
	}
}

func TestPublishFanoutAndAccounting(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	var subs []*Subscriber
	for i := 0; i < 3; i++ {
		s, err := NewSubscriber(subD, dir, "tracks", Normal, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "tracks", Class: Normal})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pub.Instrument(reg)
	if pub.Subscribers() != 3 {
		t.Fatalf("plan size = %d, want 3", pub.Subscribers())
	}

	const rounds = 20
	for i := 0; i < rounds; i++ {
		res, err := pub.Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent+res.Dropped != 3 {
			t.Fatalf("fanout accounted %d+%d, want 3", res.Sent, res.Dropped)
		}
	}

	// Conservation: every per-subscriber frame is delivered or counted
	// as a drop at exactly one ledger.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, s := range subs {
			for {
				if _, _, ok := s.Receive(); !ok {
					break
				}
			}
		}
		law := FanoutLaw(pub, subs...)
		if law.Err() == nil {
			if law.Owed != rounds*3 {
				t.Fatalf("owed %d frames, want %d", law.Owed, rounds*3)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(law.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if pub.Published() != rounds {
		t.Fatalf("published = %d", pub.Published())
	}

	snap := reg.Snapshot()
	if got := snap.Counters[metrics.Name("flipc_topic_published_total", "topic", "tracks")]; got != rounds {
		t.Fatalf("published counter = %d", got)
	}
	if snap.Histograms[metrics.Name("flipc_topic_fanout_ns", "topic", "tracks")].Count != rounds {
		t.Fatal("fanout histogram not recorded")
	}
}

// A publish at fanout 8 is eight reclaims and eight sends on pooled
// handles: it allocates nothing. The engine passes between publishes
// (which complete the sends the next publish reclaims) are not the
// publisher's cost and are left out of the count.
func TestPublishAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const fanout, rounds = 8, 32
	fabric := interconnect.NewFabric(64)
	pubD := newIdleDomain(t, fabric, 0)
	subD := newIdleDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	for i := 0; i < fanout; i++ {
		if _, err := NewSubscriber(subD, dir, "tracks", Normal, 8, 8); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "tracks", Class: Normal})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&before)
		res, err := pub.Publish(payload)
		runtime.ReadMemStats(&after)
		if err != nil || res.Sent != fanout {
			t.Fatalf("Publish = %+v, %v", res, err)
		}
		mallocs += after.Mallocs - before.Mallocs
		pubD.Poll()
		subD.Poll()
	}
	// Whole objects per publish, as AllocsPerRun reports them: a stray
	// runtime allocation during the run is not the publisher's.
	if mallocs/rounds != 0 {
		t.Fatalf("%d publishes at fanout %d allocated %d objects, want 0 a publish", rounds, fanout, mallocs)
	}
}

// pollAll runs passes of idle domains' engines until none has work.
func pollAll(doms ...*core.Domain) {
	for pass := 0; pass < 200; pass++ {
		work := false
		for _, d := range doms {
			if d.Poll() {
				work = true
			}
		}
		if !work {
			return
		}
	}
}

// A receive lends its payload, so Subscriber.Receive allocates nothing:
// on a plain subscriber, on a credit-enabled one returning credits as
// it consumes, and on a durable one taking frames in order at its seam.
// The frames are in the inbox before the count starts; the engine
// passes that put them there are not the receiver's cost.
func TestReceiveAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 16 // AllocsPerRun receives once more, as a warm-up
	for _, tc := range []struct {
		name string
		join func(d *core.Domain, dir Directory) (*Subscriber, error)
	}{
		{"plain", func(d *core.Domain, dir Directory) (*Subscriber, error) {
			return NewSubscriber(d, dir, "t", Normal, 2*runs, 2*runs)
		}},
		{"credit", func(d *core.Domain, dir Directory) (*Subscriber, error) {
			return NewSubscriberCredit(d, dir, "t", Normal, 2*runs, 2*runs)
		}},
		{"durable", func(d *core.Domain, dir Directory) (*Subscriber, error) {
			return NewSubscriberDurable(d, dir, "t", Normal, 2*runs, 2*runs, "node1/allocs")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fabric := interconnect.NewFabric(256)
			pubD := newIdleDomain(t, fabric, 0)
			subD := newIdleDomain(t, fabric, 1)
			dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
			sub, err := tc.join(subD, dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := PublisherConfig{Topic: "t", Class: Normal, Credit: sub.credit != nil}
			if sub.dur != nil {
				cfg.Log = newDurableLog(t, duralog.Options{NoSync: true})
			}
			pub, err := NewPublisher(pubD, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ready := func() bool {
				return (sub.credit == nil || pub.CreditAdverts() == 1) && (sub.dur == nil || sub.DurableLocked())
			}
			for i := 0; !ready(); i++ { // the credit and durable handshakes
				if i == 1000 {
					t.Fatal("handshake never completed")
				}
				pollAll(pubD, subD)
				drain(sub)
				if err := sub.Renew(); err != nil {
					t.Fatal(err)
				}
				pub.PumpReplay(0)
				pollAll(pubD, subD)
			}
			for i := 0; i <= runs; i++ {
				if res, err := pub.Publish([]byte{byte(i), 'm'}); err != nil || res.Sent != 1 {
					t.Fatalf("publish %d: %+v, %v", i, res, err)
				}
				pollAll(pubD, subD)
			}
			got := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if p, _, ok := sub.Receive(); ok && len(p) == 2 && p[0] == byte(got) {
					got++
				}
			})
			if got != runs+1 || allocs != 0 {
				t.Fatalf("%d of %d frames received in order, %v objects a receive (want 0)", got, runs+1, allocs)
			}
		})
	}
}

func TestPublishNoSubscribersIsNoop(t *testing.T) {
	fabric := interconnect.NewFabric(64)
	d := newDomain(t, fabric, 0)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	pub, err := NewPublisher(d, dir, PublisherConfig{Topic: "empty", Class: Bulk})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pub.Publish([]byte("x"))
	if err != nil || res.Sent != 0 || res.Dropped != 0 {
		t.Fatalf("publish to empty topic: %+v, %v", res, err)
	}
}

func TestPlanRefreshOnMembershipChange(t *testing.T) {
	fabric := interconnect.NewFabric(256)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	reg := nameservice.NewTopicRegistry()
	dir := LocalDirectory{R: reg}

	s1, err := NewSubscriber(subD, dir, "t", Bulk, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	// RefreshEvery 1: every publish probes the directory.
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Bulk, RefreshEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 1 {
		t.Fatalf("plan = %d", pub.Subscribers())
	}
	gen := pub.PlanGen()

	s2, err := NewSubscriber(subD, dir, "t", Bulk, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 2 || pub.PlanGen() == gen {
		t.Fatalf("plan did not follow join: %d subs, gen %d", pub.Subscribers(), pub.PlanGen())
	}

	if err := s2.Leave(); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 1 {
		t.Fatalf("plan did not follow leave: %d", pub.Subscribers())
	}

	// Lease expiry removes a silent subscriber the same way.
	for i := 0; i < nameservice.DefaultTopicTTL+1; i++ {
		reg.Advance()
	}
	if _, err := pub.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 0 {
		t.Fatalf("expired subscriber still in plan (%d)", pub.Subscribers())
	}

	// A renewal would have kept it alive.
	_ = s1
}

func TestSubscriberRenewKeepsLease(t *testing.T) {
	fabric := interconnect.NewFabric(256)
	d := newDomain(t, fabric, 0)
	reg := nameservice.NewTopicRegistry()
	dir := LocalDirectory{R: reg}
	s, err := NewSubscriber(d, dir, "t", Control, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	gen := reg.Gen("t")
	for i := 0; i < 2*nameservice.DefaultTopicTTL; i++ {
		reg.Advance()
		if err := s.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := reg.Snapshot("t")
	if len(snap.Subs) != 1 {
		t.Fatal("renewing subscriber expired")
	}
	if snap.Gen != gen {
		t.Fatalf("renewals bumped gen %d -> %d (plans would thrash)", gen, snap.Gen)
	}
}

// Remote directory: membership ops travel in-band through the
// nameservice server; publisher and subscribers live on other nodes.
func TestPubSubViaRemoteDirectory(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	dirD := newDomain(t, fabric, 0)
	pubD := newDomain(t, fabric, 1)
	subD := newDomain(t, fabric, 2)
	srv, err := nameservice.NewServer(dirD, nameservice.New(), 16)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(5)

	subCli, err := nameservice.NewClient(subD, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pubCli, err := nameservice.NewClient(pubD, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSubscriber(subD, RemoteDirectory{C: subCli}, "radar", Control, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, RemoteDirectory{C: pubCli}, PublisherConfig{Topic: "radar", Class: Control})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 1 {
		t.Fatalf("remote plan = %d", pub.Subscribers())
	}
	if _, err := pub.Publish([]byte("contact")); err != nil {
		t.Fatal(err)
	}
	payload, flags, err := s.ReceiveBlock(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "contact" {
		t.Fatalf("payload = %q", payload)
	}
	if ClassFromFlags(flags) != Control {
		t.Fatalf("class bits lost: flags %x", flags)
	}
}

func TestPublisherValidation(t *testing.T) {
	fabric := interconnect.NewFabric(16)
	d := newDomain(t, fabric, 0)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	if _, err := NewPublisher(d, dir, PublisherConfig{Class: Normal}); err == nil {
		t.Fatal("empty topic accepted")
	}
	if _, err := NewPublisher(d, dir, PublisherConfig{Topic: "t", Class: 9}); err == nil {
		t.Fatal("bad class accepted")
	}
	if _, err := NewSubscriber(d, dir, "", Normal, 16, 16); err == nil {
		t.Fatal("empty topic accepted")
	}
	if _, err := NewSubscriber(d, dir, "t", 9, 16, 16); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestSizingHelpers(t *testing.T) {
	if SubscriberBuffers(10) != 20 {
		t.Fatalf("SubscriberBuffers(10) = %d", SubscriberBuffers(10))
	}
	if PublisherWindow(8, 4) != 32 {
		t.Fatalf("PublisherWindow(8,4) = %d", PublisherWindow(8, 4))
	}
}
