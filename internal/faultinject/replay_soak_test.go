package faultinject_test

import (
	"encoding/binary"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

// The durable replay soak: a durable topic driven across an injector
// fabric with drops, duplicates, delays, reorders, and a mid-run
// partition live on every frame — data, replay, and control alike —
// while the subscriber side suffers every robustness event the replay
// protocol exists for, in sequence:
//
//  1. a subscriber crash (no unsubscribe) and a replacement resuming
//     under the same cursor name from the stored cursor,
//  2. a quarantine-style eviction healed by Rebind (new endpoint, new
//     address, same seam),
//  3. a registry failover (state exported to a fresh registry, fence
//     bumped, directory retargeted), which the cursors in the
//     publisher's log never see.
//
// At the end the durable conservation law must hold exactly: every
// published sequence was delivered exactly once across incarnations —
// published == delivered_live + replayed, with nothing stranded — and
// the final cursor (in the log and in the failed-over registry) sits
// at the head. Injected loss never subtracts from the stream; it only
// moves deliveries from the live column to the replay column.
//
// CorruptRate stays 0 here: topic frames carry no engine checksum in
// this configuration, and a bit-flipped sequence prefix that still
// lands on the expected next sequence would be indistinguishable from
// a genuine delivery. The engine-level chaos soak covers corruption
// under checksummed configs; this soak covers loss, not lies.
func TestDurableReplaySoak(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	chaos := faultinject.Config{
		Seed:        0xF11BC0,
		DropRate:    0.02,
		DupRate:     0.02,
		DelayRate:   0.05,
		DelayPolls:  8,
		ReorderRate: 0.02,
	}
	newNode := func(node wire.NodeID) (*core.Domain, *faultinject.Injector) {
		t.Helper()
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faultinject.Wrap(tr, chaos)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 128, NumBuffers: 256}, inj)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		return d, inj
	}
	pubD, pubInj := newNode(0)
	subD, subInj := newNode(1)

	reg1 := nameservice.NewTopicRegistry()
	dir := topic.NewFailoverDirectory(topic.LocalDirectory{R: reg1})
	log, err := duralog.Open(t.TempDir(), duralog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	const name = "soak/consumer"
	sub, err := topic.NewSubscriberDurable(subD, dir, "soak", topic.Normal, 64, 32, name)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{Topic: "soak", Class: topic.Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}

	settle := func(what string, cond func() bool) {
		t.Helper()
		// Liveness bound, not a perf assertion: generous because race-
		// instrumented runs share loaded 1-2 core CI runners with
		// spinning engine goroutines.
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// seen is the global truth the conservation law is checked against:
	// seq → delivery count, across every subscriber incarnation.
	seen := make(map[uint64]int)
	incarnations := []*topic.Subscriber{sub}
	drain := func(s *topic.Subscriber) {
		for {
			payload, _, ok := s.Receive()
			if !ok {
				return
			}
			if len(payload) != 8 {
				t.Fatalf("payload length %d", len(payload))
			}
			seen[binary.BigEndian.Uint64(payload)]++
		}
	}
	var published uint64
	publish := func() {
		published++
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], published)
		if _, err := pub.Publish(b[:]); err != nil {
			t.Fatal(err)
		}
		// No per-publish ledger assertion: a backpressure drop to an
		// address whose resume has not yet been harvested (or to a
		// crashed subscriber's stale lease) is legitimate here — the
		// durable guarantee is the exactly-once conservation law checked
		// at the end, with every such drop healed through replay.
	}
	// tick is one scheduler beat of the world: the subscriber drains and
	// renews (resume/ack cadence), the publisher pumps replay.
	tick := func(s *topic.Subscriber) {
		drain(s)
		if err := s.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
	}
	// quiesce runs the world until every published sequence has been
	// delivered and the cursor has caught the head — the clean point a
	// crash may strike without turning exactly-once into at-least-once
	// (an unacked delivery legitimately replays to the successor).
	quiesce := func(s *topic.Subscriber, what string) {
		t.Helper()
		settle(what, func() bool {
			tick(s)
			cur, ok := log.Cursor(name)
			return uint64(len(seen)) == published && ok && cur == published
		})
	}

	settle("seam lock", func() bool { tick(sub); return sub.DurableLocked() })

	// Phase 1: live traffic under chaos. Drops, dups, and reorders land
	// on live frames and on the resume/ack/done control plane; the seam
	// and the renewal cadence heal all of it.
	for i := 0; i < 300; i++ {
		publish()
		if i%3 == 0 {
			tick(sub)
		}
	}
	quiesce(sub, "phase 1 quiesce")

	// Phase 2: the subscriber crashes — no unsubscribe, the publisher
	// evicts the dead address — and the topic keeps publishing into the
	// log with nobody listening.
	deadAddr := sub.Addr()
	if !pub.Evict(deadAddr) {
		t.Fatal("evict missed the planned subscriber")
	}
	// The registry half of the eviction (normally the sweep's or the
	// quarantine housekeeper's job): without it the next Refresh would
	// re-plan the dead address from the stale lease.
	if err := topic.Unsubscribe(dir, "soak", deadAddr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		publish()
	}

	// A replacement resumes under the same cursor name at a fresh
	// address. UseStoredCursor: the predecessor's acked position is the
	// seam, so catch-up replays exactly the unheard 150.
	sub, err = topic.NewSubscriberDurable(subD, dir, "soak", topic.Normal, 64, 32, name)
	if err != nil {
		t.Fatal(err)
	}
	incarnations = append(incarnations, sub)
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		publish()
		if i%3 == 0 {
			tick(sub)
		}
	}
	quiesce(sub, "resume catch-up")

	// Phase 3: quarantine-style eviction mid-stream — the endpoint is
	// condemned, Rebind moves the seam to a fresh inbox, and the frames
	// published into the gap come back as replay. No quiesce first: the
	// eviction strikes with traffic in flight.
	oldAddr := sub.Addr()
	for i := 0; i < 100; i++ {
		publish()
		if i%3 == 0 {
			tick(sub)
		}
	}
	pub.Evict(oldAddr)
	if err := sub.Rebind(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	// A short partition while the rebind heals: live and replay frames
	// to the subscriber blackhole at the injector, acks stagnate, and
	// the tail-loss detector re-replays once it heals.
	pubInj.Partition(1, true)
	for i := 0; i < 50; i++ {
		publish()
		if i%10 == 0 {
			// Keep the partition open across real time so the engine
			// goroutine actually attempts (and loses) the sends.
			time.Sleep(2 * time.Millisecond)
		}
	}
	settle("partition swallows traffic", func() bool {
		publish()
		return pubInj.Stats().Partitioned > 0
	})
	pubInj.Partition(1, false)
	for i := 0; i < 50; i++ {
		publish()
		if i%3 == 0 {
			tick(sub)
		}
	}
	quiesce(sub, "rebind + partition heal")

	// Phase 4: registry failover. A standby restores the exported
	// subscriptions, fences above the old incarnation, and the directory
	// handle is retargeted. Publisher plans rebuild against the new
	// primary; the subscriber keeps acking into the publisher's log.
	reg2 := nameservice.NewTopicRegistry()
	reg2.RestoreState(reg1.ExportState())
	reg2.SetRegistryGen(reg1.RegistryGen() + 1)
	reg2.BumpTopicGens()
	dir.Retarget(topic.LocalDirectory{R: reg2})
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		publish()
		if i%3 == 0 {
			tick(sub)
		}
	}
	quiesce(sub, "post-failover quiesce")

	// The conservation law, exactly: published == live + replayed +
	// stranded over the name's incarnations, and — the stronger claim
	// the sums alone cannot make — every sequence delivered exactly
	// once across three incarnations of the endpoint and two of the
	// registry.
	law := topic.DurableLaw(pub, incarnations...)
	if err := law.Err(); err != nil {
		t.Fatal(err)
	}
	if law.Published != published || log.Head() != published {
		t.Fatalf("publisher ledger %d / log head %d, want %d", law.Published, log.Head(), published)
	}
	if uint64(len(seen)) != published {
		t.Fatalf("delivered %d distinct, want %d", len(seen), published)
	}
	for seq := uint64(1); seq <= published; seq++ {
		if c := seen[seq]; c != 1 {
			t.Fatalf("seq %d delivered %d times", seq, c)
		}
	}
	if law.Stranded != 0 {
		t.Fatalf("stranded = %d on an unbreached log", law.Stranded)
	}
	// The loss the chaos inflicted must show up in the replay column,
	// and live fanout during catch-up must have deferred, not doubled.
	if pub.Replayed() == 0 || law.Replayed == 0 {
		t.Fatalf("replay path unexercised: pub %d, sub %d", pub.Replayed(), law.Replayed)
	}
	if pub.Deferred() == 0 {
		t.Fatal("catch-up live fanout was never deferred")
	}
	// The cursor survived the failover: the publisher's log holds it at
	// head.
	if cur, ok := log.Cursor(name); !ok || cur != published {
		t.Fatalf("log cursor after the failover = %d (ok=%v), want %d", cur, ok, published)
	}
	if h := log.Health(); h.MaxLag != 0 || h.Err != "" {
		t.Fatalf("log health after quiesce: lag %d err %q", h.MaxLag, h.Err)
	}

	// Chaos coverage: every configured fault mode actually fired, on
	// both sides of the fabric combined.
	ps, ss := pubInj.Stats(), subInj.Stats()
	sum := faultinject.Stats{
		Dropped:     ps.Dropped + ss.Dropped,
		Partitioned: ps.Partitioned + ss.Partitioned,
		Duplicated:  ps.Duplicated + ss.Duplicated,
		Delayed:     ps.Delayed + ss.Delayed,
		Reordered:   ps.Reordered + ss.Reordered,
	}
	if sum.Dropped == 0 || sum.Duplicated == 0 || sum.Delayed == 0 || sum.Reordered == 0 || sum.Partitioned == 0 {
		t.Fatalf("chaos mode(s) never fired: %+v", sum)
	}
}
