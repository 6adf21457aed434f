package main

import (
	"fmt"

	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// runFailover kills the registry mid-traffic and measures the takeover:
// the one-domain case of the registry plane runShards runs three of.
//
// Node 0 hosts the primary registry (durable store + replication feed),
// node 1 the standby (store + stream apply), node 2 a control-class
// publisher, and every remaining node one subscriber — all resolving
// through the plane's directory. Phase one runs traffic against the
// primary while the standby follows the mutation stream. Then the
// primary is killed cold, the standby promotes, and the workload is
// retargeted. The scenario enforces the failover contract:
//
//   - the standby's generation is strictly above anything the primary
//     served, and every topic generation moved (cached plans go stale);
//   - zero subscriptions are lost across the takeover — the standby's
//     membership is a superset of the primary's last served state, and
//     subscribers re-validate their leases against the new registry;
//   - no publisher ever blocks: every publish completes and is
//     accounted (delivered or counted drop) by the conservation law;
//   - post-failover control p99 stays within 2x the pre-failover
//     baseline.
func runFailover(o opts) error {
	if o.nodes < 6 {
		o.nodes = 6 // 2 registries + publisher + 3 subscribers
	}
	sc, err := newScenario(o, simcluster.Config{NumBuffers: 4 * o.window})
	if err != nil {
		return err
	}
	defer sc.close()
	p, err := sc.newPlane(1)
	if err != nil {
		return err
	}
	r := p.reps[0]

	// Workload: subscribers on nodes 3..n-1 and a publisher on node 2.
	// Subscriptions land after the standby attached, so they flow down
	// the stream.
	const pubNode = 2
	ctl, err := sc.topicStream(p.dir, "ctl", topic.Control, pubNode)
	if err != nil {
		return err
	}
	// Durable data topic: the payload-loss ledger. Its single subscriber
	// (stable cursor name) dies with the primary registry, traffic
	// continues into the log during the blackout, and a replacement
	// resuming under the same name must recover every payload by replay
	// — zero loss, exactly once, with the cursor plane itself surviving
	// the failover.
	dur, err := sc.newDurable(p.dir, "data", "sim/ledger", pubNode, pubNode+1)
	if err != nil {
		return err
	}
	if err := p.resync(); err != nil {
		return err
	}
	p.start(dur, ctl)

	// Phase one: traffic against the primary, ctl and durable data on
	// the same cadence.
	both := func() { ctl.publish(); dur.publish() }
	sc.settleUntil(sc.phase(both), balanced(ctl))
	before, err := summarize(ctl.lat...)
	if err != nil {
		return fmt.Errorf("pre-failover phase: %w", err)
	}

	// The durable stream must be fully delivered and fully acked —
	// cursor at head in the log and registered with the primary — before
	// the kill, so the replacement's resume point is exact and the
	// cursor record is in the replication stream the standby applies.
	if !sc.await(func() bool { return dur.atHead(r.regP) }) {
		return fmt.Errorf("durable stream never settled before the kill: %d/%d delivered", len(dur.seen), dur.published)
	}
	// Let the stream fully catch up. The target is captured once —
	// renewals keep appending to the log while the clock runs, and
	// chasing a moving head would never terminate.
	target := r.stP.Seq()
	if !sc.await(func() bool { return r.apply.LastSeq() >= target }) {
		return fmt.Errorf("standby never caught up: stream at %d, primary at %d", r.apply.LastSeq(), target)
	}

	// The kill. The durable subscriber dies with the primary — a
	// compound failure: no unsubscribe, no farewell ack, the cursor's
	// last registered position is all that survives.
	p.takeover(0)
	dur.alive = false
	deadAddr := dur.current().Addr()
	if err := p.checkTakeover(0); err != nil {
		return err
	}
	if err := ctl.revalidate(); err != nil {
		return err
	}

	// Blackout tranche: data keeps publishing with its only subscriber
	// dead. Every payload lands in the journal alone; the replacement
	// owes all of them to the replay. The dead lease is reaped the way
	// the sweep would, so plans stop carrying it.
	if err := topic.Unsubscribe(p.dir, dur.topic, deadAddr); err != nil {
		return fmt.Errorf("reap dead durable lease: %w", err)
	}
	dur.pub.Evict(deadAddr)
	sc.c.Clock.RunUntil(sc.phase(dur.publish))

	// The replacement resumes under the same cursor name at a fresh
	// address, from the stored cursor.
	if err := dur.resume(sc, p.dir, pubNode+1); err != nil {
		return fmt.Errorf("durable replacement: %w", err)
	}
	if err := dur.pub.Refresh(); err != nil {
		return err
	}
	// Drain the blackout catch-up before the phase-two latency window:
	// the replay burst is deliberate Bulk-priority backlog, and letting
	// it overlap the measurement would charge the durable tranche to the
	// control-plane p99 bound.
	if !sc.await(dur.delivered) {
		return fmt.Errorf("blackout catch-up stalled: %d/%d delivered", len(dur.seen), dur.published)
	}

	// Phase two: same traffic against the new primary, with the durable
	// stream back live; then quiesce the cursor onto the new primary.
	sc.settleUntil(sc.phase(both), balanced(ctl))
	after, err := summarize(ctl.lat...)
	if err != nil {
		return fmt.Errorf("post-failover phase: %w", err)
	}
	sc.await(func() bool { return dur.atHead(r.regS) })

	// Conservation across both phases: every publish completed without
	// blocking and is accounted for at one end or the other.
	l := ctl.law()
	fmt.Printf("flipcsim -failover: %d nodes, %d subscribers, poll %v, gap %v\n",
		o.nodes, len(ctl.subs), o.poll, o.gap)
	fmt.Printf("registry: primary gen %d killed after %d records; standby promoted at gen %d (epoch %d)\n",
		r.genP, r.stP.Seq(), r.genS, p.dir.Shard(0).Epoch())
	fmt.Printf("ctl: published %d x %d subs = %d; delivered %d, recv-dropped %d, pub-dropped %d\n",
		l.Published, len(ctl.subs), l.Owed, l.Delivered, l.RecvDropped, l.PubDropped)
	if err := checkFanout(l, 2*o.msgs); err != nil {
		return err
	}
	fmt.Println("conservation: ok (zero subscriptions lost, no publisher blocked)")

	// The durable data-loss ledger: every payload published across the
	// kill — including the blackout tranche nobody was alive to hear —
	// was delivered exactly once, and the only admissible loss class
	// (retention stranding) is empty.
	dl, err := dur.check(3*o.msgs, r.regS)
	if err != nil {
		return err
	}
	// The blackout tranche is the replacement's to recover: its own
	// replay count, not the name's total across incarnations.
	recovered := dur.current().Replayed()
	if dur.pub.Replayed() == 0 || recovered == 0 {
		return fmt.Errorf("durable blackout never exercised replay (pub %d, sub %d)", dur.pub.Replayed(), recovered)
	}
	fmt.Printf("data (durable): published %d (1/3 with its subscriber dead); delivered %d distinct, %d by replay; deferred %d, stranded %d\n",
		dl.Published, dl.Live+dl.Replayed, recovered, dur.pub.Deferred(), dl.Stranded)
	fmt.Printf("durable ledger: ok (zero payload loss across the kill; cursor %d at head on the new primary)\n", dur.log.Head())

	return reportDegradation("pre-failover", "post-failover", before, after, "after failover", 2)
}
