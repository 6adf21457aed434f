package topic

import (
	"testing"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/mem"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

func TestPublisherEvictRemovesFromPlan(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	var subs []*Subscriber
	for i := 0; i < 3; i++ {
		s, err := NewSubscriber(subD, dir, "t", Normal, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "t", Class: Normal})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != 3 {
		t.Fatalf("plan size = %d", pub.Subscribers())
	}
	if !pub.Evict(subs[1].Addr()) {
		t.Fatal("planned subscriber not evicted")
	}
	if pub.Evict(subs[1].Addr()) {
		t.Fatal("evicting twice reported a second removal")
	}
	if pub.Subscribers() != 2 {
		t.Fatalf("plan size after evict = %d", pub.Subscribers())
	}
	// The eviction is plan-only: each publish now fans out to 2.
	res, err := pub.Publish([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent+res.Dropped != 2 {
		t.Fatalf("fanout after evict accounted %d+%d, want 2", res.Sent, res.Dropped)
	}
}

func TestFailoverDirectoryRetarget(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	d := newDomain(t, fabric, 0)
	regA := nameservice.NewTopicRegistry()
	regB := nameservice.NewTopicRegistry()
	fdir := NewFailoverDirectory(LocalDirectory{R: regA})

	sub, err := NewSubscriber(d, fdir, "t", Control, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := regA.Snapshot("t"); len(snap.Subs) != 1 {
		t.Fatalf("subscription not in old registry: %+v", snap)
	}
	if fdir.Epoch() != 0 {
		t.Fatalf("epoch before retarget = %d", fdir.Epoch())
	}

	fdir.Retarget(LocalDirectory{R: regB})
	if fdir.Epoch() != 1 {
		t.Fatalf("epoch after retarget = %d", fdir.Epoch())
	}
	// The subscriber keeps its directory handle: the next renew lands in
	// the new registry without the subscriber knowing anything moved.
	if err := sub.Renew(); err != nil {
		t.Fatal(err)
	}
	snap, ok := regB.Snapshot("t")
	if !ok || len(snap.Subs) != 1 || snap.Subs[0].Addr != wire.Addr(sub.Addr()) {
		t.Fatalf("renew did not re-resolve into new registry: %+v", snap)
	}
	if err := Unsubscribe(fdir, "t", sub.Addr()); err != nil {
		t.Fatal(err)
	}
	if snap, _ := regB.Snapshot("t"); len(snap.Subs) != 0 {
		t.Fatalf("unsubscribe did not reach new registry: %+v", snap)
	}
}

func TestEvictQuarantinedRemovesSubscriptions(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	tr, err := fabric.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{
		Node: 0, MessageSize: 128, NumBuffers: 256,
		Engine: engine.Config{ValidityChecks: true},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()

	reg := nameservice.NewTopicRegistry()
	dir := LocalDirectory{R: reg}
	healthy, err := NewSubscriber(d, dir, "t", Normal, 32, 32)
	if err != nil {
		t.Fatal(err)
	}

	// A raw endpoint subscribed to two topics, then corrupted: releasing
	// a slot value that is not a buffer ID trips the engine's validity
	// checks on its next send scan and quarantines the slot.
	ep, err := d.Buffer().AllocEndpoint(commbuf.EndpointSend, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := wire.Addr(ep.Addr())
	for _, topic := range []string{"t", "u"} {
		if err := reg.Subscribe(topic, bad); err != nil {
			t.Fatal(err)
		}
	}
	genBefore, _ := reg.Snapshot("t")
	app := d.Buffer().View(mem.ActorApp)
	if !ep.Queue().Release(app, 9999) {
		t.Fatal("corrupting release failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Engine().Quarantined()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("endpoint never quarantined")
		}
		time.Sleep(time.Millisecond)
	}

	seen := map[int]uint64{}
	if got := EvictQuarantined(d, reg, seen); got != 2 {
		t.Fatalf("evicted %d subscriptions, want 2", got)
	}
	// Same episode: a second sweep is a no-op.
	if got := EvictQuarantined(d, reg, seen); got != 0 {
		t.Fatalf("repeat sweep evicted %d", got)
	}
	snap, _ := reg.Snapshot("t")
	if len(snap.Subs) != 1 || snap.Subs[0].Addr != wire.Addr(healthy.Addr()) {
		t.Fatalf("quarantined subscriber still registered: %+v", snap.Subs)
	}
	if snap.Gen <= genBefore.Gen {
		t.Fatalf("eviction did not bump topic gen (%d -> %d): cached plans would keep fanning out", genBefore.Gen, snap.Gen)
	}
	if snap, _ := reg.Snapshot("u"); len(snap.Subs) != 0 {
		t.Fatalf("second topic kept the quarantined subscriber: %+v", snap.Subs)
	}
}
