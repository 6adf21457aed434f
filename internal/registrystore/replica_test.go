package registrystore

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func newDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	d, _ := newCutDomain(t, fabric, node)
	return d
}

// newCutDomain is newDomain whose transport a test can partition.
func newCutDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) (*core.Domain, *faultinject.Injector) {
	t.Helper()
	return newSizedDomain(t, fabric, node, 256)
}

// newSizedDomain is newCutDomain with msgSize-byte messages.
func newSizedDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID, msgSize int) (*core.Domain, *faultinject.Injector) {
	t.Helper()
	tr, err := fabric.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Wrap(tr, faultinject.Config{Seed: int64(node) + 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: msgSize, NumBuffers: 512}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	return d, inj
}

// replicaPair is one failover domain: a primary registry whose journal
// the Feed publishes as the durable replication topic, and a standby
// following it as a durable subscriber, each with its own store.
type replicaPair struct {
	t          *testing.T
	regA, regB *nameservice.TopicRegistry
	stA, stB   *Store
	mgrA       *Manager
	feed       *Feed
	apply      *Apply
	dirA       topic.LocalDirectory
	resyncs    int // Resync calls after the standby's bootstrap
}

func openStore(t *testing.T, dir string) (*nameservice.TopicRegistry, *Store) {
	t.Helper()
	reg := nameservice.NewTopicRegistry()
	st, err := Open(dir, reg, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return reg, st
}

// newReplicaPair promotes a primary on primD and bootstraps a standby on
// stbyD with a full-state resync (which the resync count leaves out).
func newReplicaPair(t *testing.T, primD, stbyD *core.Domain) *replicaPair {
	t.Helper()
	p := &replicaPair{t: t}
	p.regA, p.stA = openStore(t, t.TempDir())
	p.mgrA = NewManager(p.regA, p.stA)
	p.dirA = topic.LocalDirectory{R: p.regA}
	pub, err := topic.NewPublisher(primD, p.dirA, topic.PublisherConfig{
		Topic: ReplicationTopic, Class: ReplicationClass, RefreshEvery: 1, Window: 64,
		Log: p.stA.Log(), CreditBuffers: 16})
	if err != nil {
		t.Fatal(err)
	}
	p.feed = NewFeed(pub)
	p.mgrA.Promote()

	p.regB, p.stB = openStore(t, t.TempDir())
	sub, err := topic.NewSubscriberDurable(stbyD, p.dirA, ReplicationTopic, ReplicationClass, 128, 128, "standby/1")
	if err != nil {
		t.Fatal(err)
	}
	p.apply = NewApply(sub, p.regB, p.stB)
	p.resync()
	p.resyncs = 0
	return p
}

// resync installs the primary's state at its pre-export sequence.
func (p *replicaPair) resync() {
	p.t.Helper()
	seq := p.stA.Seq()
	if err := p.apply.Resync(p.regA.ExportState(), seq); err != nil {
		p.t.Fatal(err)
	}
	p.resyncs++
}

// pump is one housekeeping beat on each side: publish what the primary
// journaled, drain the standby, resync it if the stream passed it by,
// and (renew) renew its lease and cursor.
func (p *replicaPair) pump(renew bool) {
	p.t.Helper()
	if _, err := p.feed.Pump(); err != nil {
		p.t.Fatalf("feed pump: %v", err)
	}
	for p.apply.Drain() > 0 {
	}
	if p.apply.NeedResync() {
		p.resync()
	}
	if renew {
		if err := p.apply.Renew(); err != nil {
			p.t.Fatal(err)
		}
	}
}

// catchUp pumps until the standby's journal reaches the primary's
// sequence, renewing the standby's lease and acknowledging its cursor
// every sixteenth beat.
func (p *replicaPair) catchUp() {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; p.stB.Seq() != p.stA.Seq(); i++ {
		if time.Now().After(deadline) {
			p.t.Fatalf("standby never caught up: at %d, primary at %d", p.stB.Seq(), p.stA.Seq())
		}
		p.pump(i%16 == 15)
		time.Sleep(time.Millisecond)
	}
}

// TestApplyGapForcesResync: the standby applies the stream once and in
// order, journaling each record at the primary's sequence, and skips the
// records at or below its head that a replay overlap re-delivers. Only a
// record above head+1 — the retention horizon passed the cursor, so the
// seam cannot replay what lies between — asks for a resync.
func TestApplyGapForcesResync(t *testing.T) {
	reg, st := openStore(t, t.TempDir())
	a := NewApply(nil, reg, st)
	sub1, err := wire.MakeAddr(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(r Record) {
		b, err := AppendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		a.mu.Lock()
		a.applyLocked(b)
		a.mu.Unlock()
	}

	// In sequence from genesis: applies, journaled at the same sequence.
	feed(Record{Type: RecDeclare, Seq: 1, Topic: "t", Class: 1})
	feed(Record{Type: RecSubscribe, Seq: 2, Topic: "t", Addr: sub1})
	feed(Record{Type: RecHeartbeat, Seq: 3, Gen: 3})
	if a.NeedResync() || st.Seq() != 3 || a.PrimaryGen() != 3 {
		t.Fatalf("in-sequence stream: resync=%v seq=%d primaryGen=%d", a.NeedResync(), st.Seq(), a.PrimaryGen())
	}
	// A replay overlapping what is applied: skipped, no resync.
	feed(Record{Type: RecUnsubscribe, Seq: 2, Topic: "t", Addr: sub1})
	if snap, _ := reg.Snapshot("t"); a.NeedResync() || st.Seq() != 3 || len(snap.Subs) != 1 {
		t.Fatalf("overlap: resync=%v seq=%d subs=%v", a.NeedResync(), st.Seq(), snap.Subs)
	}
	// A record above head+1: stranded. Nothing applies until resync.
	feed(Record{Type: RecDeclare, Seq: 6, Topic: "u", Class: 1})
	feed(Record{Type: RecDeclare, Seq: 7, Topic: "v", Class: 1})
	if _, applied := reg.Snapshot("v"); !a.NeedResync() || applied || st.Seq() != 3 {
		t.Fatalf("stranded cursor: resync=%v applied %v seq=%d", a.NeedResync(), applied, st.Seq())
	}
	// Resync installs the snapshot and restarts the journal at its
	// sequence; the stream applies from the next record.
	src := nameservice.NewTopicRegistry()
	if err := src.Subscribe("t", sub1); err != nil {
		t.Fatal(err)
	}
	if err := a.Resync(src.ExportState(), 7); err != nil {
		t.Fatal(err)
	}
	if a.NeedResync() || st.Seq() != 7 {
		t.Fatalf("after resync: resync=%v seq=%d", a.NeedResync(), st.Seq())
	}
	feed(Record{Type: RecDeclare, Seq: 8, Topic: "w", Class: 1})
	if _, applied := reg.Snapshot("w"); a.NeedResync() || !applied || st.Seq() != 8 {
		t.Fatal("post-resync record did not apply")
	}
}

// TestDroppedFrameResumesWithoutResync cuts the standby's node off for
// one Pump: the records published meanwhile are lost on the wire. The
// standby's durable subscription replays them from its cursor, so it
// reaches the primary's sequence with zero resyncs and the same topics.
func TestDroppedFrameResumesWithoutResync(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	primD, primCut := newCutDomain(t, fabric, 0)
	stbyD, stbyCut := newCutDomain(t, fabric, 1)
	p := newReplicaPair(t, primD, stbyD)

	mutate := func(base uint16, n int) {
		for i := 0; i < n; i++ {
			a, err := wire.MakeAddr(2, base+uint16(i), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.regA.Subscribe("data", a); err != nil {
				t.Fatal(err)
			}
		}
		p.mgrA.Heartbeat()
	}
	mutate(1, 8)
	p.catchUp()

	primCut.Partition(1, true)
	stbyCut.Partition(0, true)
	mutate(20, 8)
	pub := p.feed.pub
	sent, replayed := pub.Sent(), pub.Replayed()
	if _, err := p.feed.Pump(); err != nil {
		t.Fatal(err)
	}
	// Every data frame of this beat, live or replayed, is lost once the
	// engine has sent it.
	lost := pub.Sent() - sent + pub.Replayed() - replayed
	if lost == 0 {
		t.Fatal("test setup: the cut beat sent nothing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for primCut.Stats().Partitioned < lost {
		if time.Now().After(deadline) {
			t.Fatalf("the engine sent %d of %d frames into the cut", primCut.Stats().Partitioned, lost)
		}
		time.Sleep(time.Millisecond)
	}
	primCut.Heal()
	stbyCut.Heal()

	mutate(40, 8)
	p.catchUp()
	if p.resyncs != 0 {
		t.Fatalf("a dropped frame cost %d resyncs; the standby should have replayed from its cursor", p.resyncs)
	}
	if p.stB.Seq() != p.stA.Seq() {
		t.Fatalf("standby at %d, primary at %d", p.stB.Seq(), p.stA.Seq())
	}
	if a, b := p.regA.ExportState().Topics, p.regB.ExportState().Topics; !reflect.DeepEqual(a, b) {
		t.Fatalf("standby topics diverged:\n got %+v\nwant %+v", b, a)
	}
}

// TestLaggingStandbyBoundsJournal: a standby cut off from the primary
// stops acknowledging, and its cursor would pin every journal segment
// after it. Compaction forgets the cursor once the journal passes
// journalMaxSegments, so the primary's segments stay bounded however
// long the standby is gone; when it comes back its cursor is stranded,
// and it resyncs exactly once and follows the stream again.
func TestLaggingStandbyBoundsJournal(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	primD, primCut := newCutDomain(t, fabric, 0)
	stbyD, stbyCut := newCutDomain(t, fabric, 1)
	p := newReplicaPair(t, primD, stbyD)
	if err := p.regA.Subscribe("data", addr(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	p.catchUp()
	// The standby's cursor, which pins the segments, must have reached
	// the primary's log before the cut.
	deadline := time.Now().Add(5 * time.Second)
	for _, ok := p.stA.Log().Cursor("standby/1"); !ok; _, ok = p.stA.Log().Cursor("standby/1") {
		if time.Now().After(deadline) {
			t.Fatal("the standby's cursor never reached the primary's log")
		}
		p.pump(true)
		time.Sleep(time.Millisecond)
	}

	primCut.Partition(1, true)
	stbyCut.Partition(0, true)
	// Subscribe churn on a long topic name fills segments quickly: about
	// 350 records to a segment, so each round writes two segments.
	churn := strings.Repeat("c", 150)
	churner := addr(t, 2, 9)
	var peak int
	for round := 0; round < 3*journalMaxSegments; round++ {
		for i := 0; i < 400; i++ {
			if err := p.regA.Subscribe(churn, churner); err != nil {
				t.Fatal(err)
			}
			p.regA.Unsubscribe(churn, churner)
		}
		if _, err := p.feed.Pump(); err != nil {
			t.Fatal(err)
		}
		if err := p.stA.Compact(p.regA); err != nil {
			t.Fatal(err)
		}
		h := p.stA.Log().Health()
		if h.Segments > journalMaxSegments {
			t.Fatalf("round %d: %d journal segments after compaction, bound %d", round, h.Segments, journalMaxSegments)
		}
		peak = max(peak, h.Segments)
	}
	if peak < journalMaxSegments/2 {
		t.Fatalf("test setup: the journal peaked at %d segments, never near the bound %d", peak, journalMaxSegments)
	}
	if first := p.stA.Log().First(); first <= p.stB.Seq()+1 {
		t.Fatalf("test setup: retention kept the standby's next record %d (first retained %d)", p.stB.Seq()+1, first)
	}
	primCut.Heal()
	stbyCut.Heal()

	if err := p.regA.Subscribe("data", addr(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	p.catchUp()
	if p.resyncs != 1 || p.feed.pub.ReplayStranded() == 0 {
		t.Fatalf("resyncs %d, stranded %d; want one resync for a cursor retention passed", p.resyncs, p.feed.pub.ReplayStranded())
	}
	if a, b := p.regA.ExportState().Topics, p.regB.ExportState().Topics; !reflect.DeepEqual(a, b) {
		t.Fatalf("standby topics diverged:\n got %+v\nwant %+v", b, a)
	}
}

// TestExpiryReplicatesAsUnsubscribe: a subscription that stops renewing
// expires on the primary's sweep and reaches the standby as an
// unsubscribe record, after which both registries hold the same
// membership and the same per-topic generations.
func TestExpiryReplicatesAsUnsubscribe(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	p := newReplicaPair(t, newDomain(t, fabric, 0), newDomain(t, fabric, 1))
	live, silent := addr(t, 2, 1), addr(t, 2, 2)
	for _, a := range []wire.Addr{live, silent} {
		if err := p.regA.Subscribe("data", a); err != nil {
			t.Fatal(err)
		}
	}
	p.catchUp()
	from := p.stB.Seq()
	for tick := 0; tick <= nameservice.DefaultTopicTTL; tick++ {
		if err := p.regA.Subscribe("data", live); err != nil {
			t.Fatal(err)
		}
		p.regA.Advance()
		p.mgrA.Heartbeat()
		p.pump(true) // the standby renews its own stream lease each tick
		p.catchUp()
	}
	if snap, _ := p.regA.Snapshot("data"); len(snap.Subs) != 1 || snap.Subs[0].Addr != live {
		t.Fatalf("primary membership after %d sweeps: %+v, want only the renewing subscriber", nameservice.DefaultTopicTTL+1, snap.Subs)
	}
	var recs []Record
	if err := p.stB.Log().Replay(from+1, func(_ uint64, _ uint8, b []byte) error {
		rec, _, err := DecodeRecord(b)
		recs = append(recs, rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	unsubs := 0
	for _, r := range recs {
		switch {
		case r.Type == RecUnsubscribe && r.Topic == "data" && r.Addr == silent:
			unsubs++
		case r.Type != RecHeartbeat:
			t.Fatalf("standby journaled %+v; want heartbeats and one unsubscribe", r)
		}
	}
	if unsubs != 1 {
		t.Fatalf("the standby journaled %d unsubscribes of the expired subscription, want 1 (records %+v)", unsubs, recs)
	}
	if a, b := membership(p.regA), membership(p.regB); a != b {
		t.Fatalf("membership diverged:\n standby %s\n primary %s", b, a)
	}
}

// TestRegistryFailoverSoak is the failover soak: a primary registry
// replicates to a standby over the reserved control-priority topic
// while a publisher fans traffic out to subscribers; the primary is
// killed mid-traffic, the standby fences itself strictly above and
// takes over, and the test asserts zero subscriptions were lost, no
// publisher ever blocked (sends stay error-free and accounted), and
// fanout conservation holds across the failover.
func TestRegistryFailoverSoak(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	primD := newDomain(t, fabric, 0)
	stbyD := newDomain(t, fabric, 1)
	workD := newDomain(t, fabric, 2)

	// Replication stream: the primary's journal published on the
	// reserved topic, the standby a durable subscriber, both through the
	// primary's own registry (dogfooding).
	rp := newReplicaPair(t, primD, stbyD)
	regA, regB, stB, mgrA, apply := rp.regA, rp.regB, rp.stB, rp.mgrA, rp.apply
	dirA := rp.dirA
	genA := regA.RegistryGen()

	// Workload: subscribers and a publisher on "data", resolving through
	// a failover directory so the registry can be retargeted live.
	fdir := topic.NewFailoverDirectory(dirA)
	var subs []*topic.Subscriber
	for i := 0; i < 3; i++ {
		s, err := topic.NewSubscriber(workD, fdir, "data", topic.Normal, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	pub, err := topic.NewPublisher(workD, fdir, topic.PublisherConfig{
		Topic: "data", Class: topic.Normal, RefreshEvery: 8, Window: 256})
	if err != nil {
		t.Fatal(err)
	}

	const phase = 1500
	published := 0
	publish := func(n int) {
		for i := 0; i < n; i++ {
			res, err := pub.Publish([]byte("tick"))
			if err != nil {
				t.Fatalf("publish %d: %v", published, err)
			}
			if res.Sent+res.Dropped != len(subs) {
				t.Fatalf("fanout accounted %d+%d, want %d", res.Sent, res.Dropped, len(subs))
			}
			published++
			for _, s := range subs {
				for {
					if _, _, ok := s.Receive(); !ok {
						break
					}
				}
			}
			if i%64 == 0 {
				mgrA.Heartbeat()
				rp.pump(i%1024 == 0)
			}
		}
	}
	publish(phase)
	// Let the replication stream settle before comparing states.
	rp.catchUp()

	// Kill the primary mid-traffic and fail over.
	before := regA.ExportState()
	regA.Observe(nil) // primary stops serving
	peerGen := apply.PrimaryGen()
	mgrB := NewManager(regB, stB)
	mgrB.ObservePeer(peerGen)
	genB := mgrB.Promote()
	if genB <= genA {
		t.Fatalf("standby fenced at %d, not above primary %d", genB, genA)
	}
	fdir.Retarget(topic.LocalDirectory{R: regB})
	if fdir.Epoch() != 1 {
		t.Fatalf("retarget epoch = %d", fdir.Epoch())
	}

	// Zero subscriptions lost: every (topic, subscriber) the primary
	// served must be present at the new primary.
	after := regB.ExportState()
	got := make(map[string]map[wire.Addr]bool)
	for _, ts := range after.Topics {
		set := make(map[wire.Addr]bool)
		for _, s := range ts.Subs {
			set[s.Addr] = true
		}
		got[ts.Name] = set
	}
	for _, ts := range before.Topics {
		for _, s := range ts.Subs {
			if !got[ts.Name][s.Addr] {
				t.Fatalf("failover lost subscription %v to %q", s.Addr, ts.Name)
			}
		}
	}
	// And every topic generation moved strictly above what was served.
	for _, ts := range before.Topics {
		if g := regB.Gen(ts.Name); g <= ts.Gen {
			t.Fatalf("topic %q gen %d not above served %d", ts.Name, g, ts.Gen)
		}
	}

	// Traffic continues against the new primary: the fence makes every
	// cached plan stale, so the publisher rebuilds and keeps fanning out
	// to the full subscriber set; renewals land at the new registry.
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != len(subs) {
		t.Fatalf("post-failover plan has %d subscribers, want %d", pub.Subscribers(), len(subs))
	}
	for _, s := range subs {
		if err := s.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	publish(phase)

	// Conservation across the whole run: every per-subscriber frame was
	// delivered or counted at exactly one ledger.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var delivered, recvDrops uint64
		for _, s := range subs {
			for {
				if _, _, ok := s.Receive(); !ok {
					break
				}
			}
			delivered += s.Received()
			recvDrops += s.Drops()
		}
		if delivered+recvDrops+pub.Dropped() == uint64(published*len(subs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation: %d delivered + %d recv drops + %d pub drops != %d",
				delivered, recvDrops, pub.Dropped(), published*len(subs))
		}
		time.Sleep(time.Millisecond)
	}
	if h := mgrB.Health(); h.Role != "primary" || h.RegistryGen != genB {
		t.Fatalf("new primary health = %+v", h)
	}
}

// TestStrandedRecordResyncs: a record the stream cannot carry — a
// subscribe whose topic name overflows one 192-byte frame — is stranded
// by the publisher and granted past, so the standby's seam skips it.
// The record after it is then above the standby's head+1: the standby
// resyncs once, and only then, and follows the stream again.
func TestStrandedRecordResyncs(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	primD, _ := newSizedDomain(t, fabric, 0, 192)
	stbyD, _ := newSizedDomain(t, fabric, 1, 192)
	p := newReplicaPair(t, primD, stbyD)
	if err := p.regA.Subscribe("data", addr(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	p.catchUp()
	if p.resyncs != 0 {
		t.Fatalf("%d resyncs before anything was stranded", p.resyncs)
	}

	if err := p.regA.Subscribe(strings.Repeat("n", 180), addr(t, 2, 3)); err != nil {
		t.Fatal(err)
	}
	p.mgrA.Heartbeat()
	if _, err := p.feed.Pump(); err == nil {
		t.Fatal("an oversize record published without error")
	}
	p.catchUp()
	if p.resyncs != 1 || p.feed.pub.ReplayStranded() == 0 {
		t.Fatalf("resyncs %d, stranded %d; want one resync for a stranded record", p.resyncs, p.feed.pub.ReplayStranded())
	}
	if err := p.regA.Subscribe("data", addr(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	p.catchUp()
	if a, b := p.regA.ExportState().Topics, p.regB.ExportState().Topics; p.resyncs != 1 || !reflect.DeepEqual(a, b) {
		t.Fatalf("after the resync: %d resyncs, topics\n got %+v\nwant %+v", p.resyncs, b, a)
	}
}

// TestRetiredRecordsStrandStream: a record in a layout the stream no
// longer carries — a renewal, or a version-0 frame — fails to decode at
// the standby, which asks for a resync, applies nothing and leaves its
// journal head where it was.
func TestRetiredRecordsStrandStream(t *testing.T) {
	a1 := addr(t, 1, 4)
	declare, err := AppendRecord(nil, &Record{Type: RecDeclare, Seq: 1, Topic: "t", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{
		"renew":     framed(1, typRenew, 2, nil, addrBody(a1, "t")),
		"version 0": framed(0, uint8(RecSubscribe), 2, nil, addrBody(a1, "t")),
	} {
		t.Run(name, func(t *testing.T) {
			reg, st := openStore(t, t.TempDir())
			a := NewApply(nil, reg, st)
			for _, b := range [][]byte{declare, rec} {
				a.mu.Lock()
				a.applyLocked(b)
				a.mu.Unlock()
			}
			if snap, _ := reg.Snapshot("t"); !a.NeedResync() || len(snap.Subs) != 0 || st.Seq() != 1 {
				t.Fatalf("resync=%v subs=%v head=%d; want a resync, no subscriber, head 1", a.NeedResync(), snap.Subs, st.Seq())
			}
		})
	}
}

// The replication stream of one scripted primary history — promote,
// declare, two joins, a renewal, four sweeps that expire one member, a
// leave, a heartbeat — as two primaries journaled it, one record per
// line. streamMembership is the first primary that journals membership
// only (commit 38a4b3c, "Registry journals membership only"): renewals
// and sweeps journal nothing, and an expiry journals the unsubscribe it
// causes. streamLeases is the one before it, which journaled each
// sweep as an advance (type 5) and the renewal as a renew (type 3).
var (
	streamMembership = []string{
		"2f9e6b3c000a0601000000000000000100000000000000000001",
		"5576038a0009010100000000000000020000016f7264657273",
		"719e08f7000c020100000000000000030000004010016f7264657273",
		"3c6173ea000c020100000000000000040000008024016f7264657273",
		"c1235ac6000c040100000000000000050000008024016f7264657273",
		"4f94c04f000c040100000000000000060000004010016f7264657273",
		"65cd3714000a0701000000000000000700000000000000000001",
	}
	streamLeases = []string{
		"2f9e6b3c000a0601000000000000000100000000000000000001",
		"5576038a0009010100000000000000020000016f7264657273",
		"719e08f7000c020100000000000000030000004010016f7264657273",
		"3c6173ea000c020100000000000000040000008024016f7264657273",
		"4f97026e0002050100000000000000050000",
		"de113fb2000c030100000000000000060000004010016f7264657273",
	}
)

// TestOldestFollowedPrimary: today's primary journals the scripted
// history as the same bytes the first membership-only primary did, so a
// standby follows that primary's stream without a resync. The stream of
// the primary before it strands the standby at its first sweep.
func TestOldestFollowedPrimary(t *testing.T) {
	reg, st := openStore(t, t.TempDir())
	m := NewManager(reg, st)
	m.Promote()
	a, b := addr(t, 1, 4), addr(t, 2, 9)
	for _, err := range []error{reg.Declare("orders", 1), reg.Subscribe("orders", a), reg.Subscribe("orders", b)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	reg.Advance()
	if err := reg.Subscribe("orders", a); err != nil { // a renewal
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		reg.Advance() // the third expires b
	}
	reg.Unsubscribe("orders", a)
	m.Heartbeat()
	var journal []string
	if err := st.Log().Replay(1, func(_ uint64, _ uint8, p []byte) error {
		journal = append(journal, hex.EncodeToString(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journal, streamMembership) {
		t.Fatalf("journal\n%s\nwant\n%s", strings.Join(journal, "\n"), strings.Join(streamMembership, "\n"))
	}

	for _, c := range []struct {
		stream   []string
		resync   bool
		wantHead uint64
	}{{streamMembership, false, 7}, {streamLeases, true, 4}} {
		regB, stB := openStore(t, t.TempDir())
		apply := NewApply(nil, regB, stB)
		for _, rec := range c.stream {
			b, err := hex.DecodeString(rec)
			if err != nil {
				t.Fatal(err)
			}
			apply.mu.Lock()
			apply.applyLocked(b)
			apply.mu.Unlock()
		}
		if apply.NeedResync() != c.resync || stB.Seq() != c.wantHead {
			t.Fatalf("stream of %d records: resync=%v head=%d, want resync=%v head=%d", len(c.stream), apply.NeedResync(), stB.Seq(), c.resync, c.wantHead)
		}
		if !c.resync && !reflect.DeepEqual(regB.ExportState().Topics, reg.ExportState().Topics) {
			t.Fatalf("standby topics %+v, primary %+v", regB.ExportState().Topics, reg.ExportState().Topics)
		}
	}
}
