package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func testDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	tr, err := fabric.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: 256, NumBuffers: 256}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	return d
}

// TestStreamSilenceTriggersFailover exercises the standby's failover
// detector: heartbeat-only stream progress (nothing mutates; each
// journaled heartbeat moves the sequence) must keep holding off the
// -failover-after promotion, and true stream silence after the primary
// dies must trip it. Regression test for the detector reading a
// cumulative counter as perpetual progress, which made auto-promotion
// permanently unreachable once any heartbeat had ever arrived.
func TestStreamSilenceTriggersFailover(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	primD := testDomain(t, fabric, 0)
	stbyD := testDomain(t, fabric, 1)
	open := func() (*nameservice.TopicRegistry, *registrystore.Store) {
		reg := nameservice.NewTopicRegistry()
		st, err := registrystore.Open(t.TempDir(), reg, registrystore.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return reg, st
	}

	// Primary side: a promoted store and the feed over its journal.
	regA, stA := open()
	mgrA := registrystore.NewManager(regA, stA)
	dirA := topic.LocalDirectory{R: regA}
	pub, err := topic.NewPublisher(primD, dirA, topic.PublisherConfig{
		Topic: registrystore.ReplicationTopic, Class: registrystore.ReplicationClass,
		RefreshEvery: 1, Window: 64, Log: stA.Log(), CreditBuffers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := registrystore.NewFeed(pub)
	mgrA.Promote()

	// Standby side: the durable stream subscription plus the detector
	// state, bootstrapped from the primary's state.
	regB, stB := open()
	sub, err := topic.NewSubscriberDurable(stbyD, dirA, registrystore.ReplicationTopic,
		registrystore.ReplicationClass, 64, 64, "standby/1")
	if err != nil {
		t.Fatal(err)
	}
	rn := &registryNode{
		opts:      registryOpts{FailoverAfter: 300 * time.Millisecond},
		st:        stB,
		apply:     registrystore.NewApply(sub, regB, stB),
		lastMoved: time.Now(),
	}
	if err := rn.apply.Resync(regA.ExportState(), stA.Seq()); err != nil {
		t.Fatal(err)
	}

	// Heartbeat-only progress, spanning well past FailoverAfter in
	// total: each delivered heartbeat must refresh the silence clock.
	for i := 0; i < 6; i++ {
		mgrA.Heartbeat()
		if _, err := feed.Pump(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		rn.apply.Drain()
		if rn.streamSilent() {
			t.Fatalf("heartbeat progress read as silence on tick %d", i)
		}
	}
	if stB.Seq() != stA.Seq() || rn.apply.NeedResync() {
		t.Fatalf("standby at %d (resync %v), primary at %d", stB.Seq(), rn.apply.NeedResync(), stA.Seq())
	}

	// The primary dies: no more heartbeats. Silence must be detected
	// once the timeout elapses — with the cumulative-counter bug this
	// loop never terminates.
	deadline := time.Now().Add(5 * time.Second)
	for !rn.streamSilent() {
		if time.Now().After(deadline) {
			t.Fatal("stream silence never detected after the primary stopped")
		}
		rn.apply.Drain()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestStandbyStoreFailureDoesNotPromote: a standby whose own store fails
// stops journaling, but the primary is alive and its heartbeats still
// arrive. The standby must not read its frozen journal head as stream
// silence and take over, and must not ask for a resync it could not
// journal either.
func TestStandbyStoreFailureDoesNotPromote(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	primD := testDomain(t, fabric, 0)
	stbyD := testDomain(t, fabric, 1)

	regA := nameservice.NewTopicRegistry()
	stA, err := registrystore.Open(t.TempDir(), regA, registrystore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stA.Close() })
	mgrA := registrystore.NewManager(regA, stA)
	dirA := topic.LocalDirectory{R: regA}
	pub, err := topic.NewPublisher(primD, dirA, topic.PublisherConfig{
		Topic: registrystore.ReplicationTopic, Class: registrystore.ReplicationClass,
		RefreshEvery: 1, Window: 64, Log: stA.Log(), CreditBuffers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := registrystore.NewFeed(pub)
	mgrA.Promote()

	dirB := filepath.Join(t.TempDir(), "standby")
	regB := nameservice.NewTopicRegistry()
	stB, err := registrystore.Open(dirB, regB, registrystore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := topic.NewSubscriberDurable(stbyD, dirA, registrystore.ReplicationTopic,
		registrystore.ReplicationClass, 64, 64, "standby/1")
	if err != nil {
		t.Fatal(err)
	}
	rn := &registryNode{
		opts:      registryOpts{FailoverAfter: 300 * time.Millisecond},
		st:        stB,
		apply:     registrystore.NewApply(sub, regB, stB),
		lastMoved: time.Now(),
	}
	if err := rn.apply.Resync(regA.ExportState(), stA.Seq()); err != nil {
		t.Fatal(err)
	}
	mgrA.Heartbeat()
	deadline := time.Now().Add(5 * time.Second)
	for stB.Seq() != stA.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("standby never followed: at %d, primary at %d", stB.Seq(), stA.Seq())
		}
		if _, err := feed.Pump(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		rn.apply.Drain()
	}

	// The standby's store directory becomes a file: the next segment
	// its journal opens cannot be created.
	stB.Close()
	if err := os.RemoveAll(dirB); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dirB, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	// Heartbeats keep coming, well past FailoverAfter in total.
	for i := 0; i < 8; i++ {
		mgrA.Heartbeat()
		if _, err := feed.Pump(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		rn.apply.Drain()
		if rn.apply.NeedResync() {
			t.Fatalf("tick %d: a standby whose store failed asked for a resync", i)
		}
		if rn.streamSilent() {
			t.Fatalf("tick %d: a live primary's heartbeats read as silence once the standby's store failed", i)
		}
	}
	if stB.Err() == nil {
		t.Fatal("test setup: the standby's store never failed")
	}
	if rn.apply.Delivered() != stA.Seq() {
		t.Fatalf("stream delivered up to %d, primary at %d", rn.apply.Delivered(), stA.Seq())
	}
}

// TestShardMapPathRefusedUntouched: -shardmap takes only an inline
// spec. A file path is refused as a bad spec, and no file is created
// at that path.
func TestShardMapPathRefusedUntouched(t *testing.T) {
	d := testDomain(t, interconnect.NewFabric(64), 0)
	path := filepath.Join(t.TempDir(), "shardmap.log")
	if _, err := startRegistry(d, nameservice.New(), registryOpts{ShardMap: path}); err == nil {
		t.Fatalf("startRegistry accepted -shardmap %q", path)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("startRegistry left a file at %s (stat err %v)", path, err)
	}
}

// TestPartitionedPrimaryPromotesOnTime: a standby cut off from its
// primary (every frame the primary sends it is lost; the primary itself
// runs on) promotes within FailoverAfter + LeaseInterval of the cut. Its
// housekeeping tick renews the stream lease at the silent primary, and
// that call must not hold the tick — and with it the failover detector
// — past the lease interval.
func TestPartitionedPrimaryPromotesOnTime(t *testing.T) {
	const lease, failAfter = 400 * time.Millisecond, time.Second
	fabric := interconnect.NewFabric(1024)
	domain := func(node wire.NodeID) (*core.Domain, *faultinject.Injector) {
		t.Helper()
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faultinject.Wrap(tr, faultinject.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Sized as flipcd sizes a registry node's domain.
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 256, NumBuffers: 512, MaxEndpoints: 32}, inj)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		return d, inj
	}
	primD, cut := domain(0)
	stbyD, _ := domain(1)

	start := func(d *core.Domain, opts registryOpts) *registryNode {
		t.Helper()
		opts.WALDir, opts.LeaseInterval, opts.CompactEvery = t.TempDir(), lease, 1<<20
		rn, err := startRegistry(d, nameservice.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); rn.housekeeping(stop) }()
		t.Cleanup(func() { close(stop); <-done; rn.st.Close() })
		return rn
	}
	prim := start(primD, registryOpts{})
	stby := start(stbyD, registryOpts{Standby: true, FailoverAfter: failAfter,
		StreamAddr: fmt.Sprintf("%#x", uint32(prim.srv.Addr()))})

	// The standby follows the primary's heartbeats before the cut.
	deadline := time.Now().Add(5 * time.Second)
	for stby.apply.Delivered() <= prim.st.SnapshotSeq()+2 {
		if time.Now().After(deadline) {
			t.Fatalf("the standby never followed: delivered %d, primary at %d", stby.apply.Delivered(), prim.st.Seq())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cut.Partition(1, true)
	cutAt := time.Now()
	for stby.mgr.Role() != registrystore.RolePrimary {
		if time.Since(cutAt) > 10*time.Second {
			t.Fatal("the standby never promoted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	took := time.Since(cutAt)
	t.Logf("promoted %v after the cut (failover-after %v, lease interval %v)", took, failAfter, lease)
	if took > failAfter+lease {
		t.Fatalf("promoted %v after the cut, want within failover-after + lease interval = %v", took, failAfter+lease)
	}
}
