package main

import (
	"fmt"

	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// nShards is the scenario's shard count: three independent failover
// domains, one of which is killed mid-traffic.
const nShards = 3

// runShards is the sharded-registry failure-domain scenario: three
// registry shards partition the topic namespace (consistent-hash
// shard map), each with its own durable store, replication stream
// ("!registry/<k>") and standby. One control topic per shard carries
// tagged traffic; a durable data topic rides on shard 0. Mid-way
// through phase two, shard 1's primary is killed cold and its standby
// promotes. The scenario enforces the independence contract:
//
//   - the surviving shards never notice: their ctl p99 stays within
//     1.2x their own pre-kill baseline and their FailoverDirectory
//     epochs never move;
//   - zero subscriptions are lost anywhere — the killed shard's
//     promoted standby serves a superset of the primary's last state
//     under a strictly higher generation, and the survivors' leases
//     are untouched;
//   - the durable cursor plane on a surviving shard is unperturbed:
//     every payload exactly once, cursor at head, nothing stranded;
//   - conservation is exact per shard (the fanout law, with throttles
//     zero on the uncredited control plane).
func runShards(o opts) error {
	if o.nodes < 10 {
		o.nodes = 10 // 3 primaries + 3 standbys + publisher + 3 subscribers
	}
	sc, err := newScenario(o, simcluster.Config{NumBuffers: 16 * o.window})
	if err != nil {
		return err
	}
	defer sc.close()
	p, err := sc.newPlane(nShards)
	if err != nil {
		return err
	}

	// One control topic per shard, names found by searching the map
	// (routing is deterministic, so so are the names), plus a durable
	// data topic owned by shard 0 — a surviving shard, to prove the
	// cursor plane elsewhere never flinches.
	ctlTopic := map[uint32]string{}
	for i := 0; len(ctlTopic) < nShards; i++ {
		name := fmt.Sprintf("ctl-%d", i)
		id, ok := p.smap.ShardOf(name)
		if !ok {
			return fmt.Errorf("shard map refused to route")
		}
		if _, have := ctlTopic[id]; !have {
			ctlTopic[id] = name
		}
	}
	dataTopic := ""
	for i := 0; dataTopic == ""; i++ {
		name := fmt.Sprintf("data-%d", i)
		if id, _ := p.smap.ShardOf(name); id == 0 {
			dataTopic = name
		}
	}

	// Subscribers on nodes 7..n-1 join every shard's control topic; node
	// 6 hosts one publisher per topic.
	const pubNode = 2 * nShards
	var streams []*stream
	var windows [][]*samples
	for k := uint32(0); k < nShards; k++ {
		st, err := sc.topicStream(p.dir, ctlTopic[k], topic.Control, pubNode)
		if err != nil {
			return err
		}
		streams = append(streams, st)
		windows = append(windows, st.lat)
	}
	nsubs := len(streams[0].subs)
	dur, err := sc.newDurable(p.dir, dataTopic, "sim/shard-ledger", pubNode, pubNode+1)
	if err != nil {
		return err
	}
	if err := p.resync(); err != nil {
		return err
	}
	p.start(dur, streams...)

	// Let the durable handshake land before traffic starts: history
	// published before the cursor is pinned is by design not replayed,
	// so the exactly-once ledger begins at a locked seam.
	if !sc.await(dur.current().DurableLocked) {
		return fmt.Errorf("durable subscriber never locked its seam")
	}

	all := func() {
		for _, st := range streams {
			st.publish()
		}
		dur.publish()
	}
	names := make([]string, nShards)
	for k := range names {
		names[k] = fmt.Sprintf("shard %d", k)
	}

	// Phase one: traffic on all shards, establishing each shard's own
	// latency baseline.
	sc.settleUntil(sc.phase(all), balanced(streams...))
	before, err := summarizeEach(names, "baseline", windows)
	if err != nil {
		return err
	}
	epochBefore := [nShards]uint64{}
	for k := range epochBefore {
		epochBefore[k] = p.dir.Shard(uint32(k)).Epoch()
	}

	// Phase two: same traffic, with shard 1's primary killed cold
	// mid-phase. The kill callback is the takeover, with a best-effort
	// final pump/drain first — anything still in flight on the mesh dies
	// with the primary, which is the point. The other shards are never
	// touched.
	const victim = 1
	sc.c.Clock.At(sc.midPhase(), func() {
		v := p.reps[victim]
		if _, err := v.feed.Pump(); err != nil {
			fatal(err)
		}
		v.apply.Drain()
		p.takeover(victim)
		if err := streams[victim].revalidate(); err != nil {
			fatal(err)
		}
	})
	sc.settleUntil(sc.phase(all), balanced(streams...))
	after, err := summarizeEach(names, "phase two", windows)
	if err != nil {
		return err
	}
	// Durable quiesce: every payload delivered, cursor at head on the
	// log and registered with shard 0's (never killed) registry.
	sc.await(func() bool { return dur.atHead(p.reps[0].regP) })

	fmt.Printf("flipcsim -shards: %d nodes, %d shards, %d subscribers/topic, poll %v, gap %v\n",
		o.nodes, nShards, nsubs, o.poll, o.gap)
	fmt.Printf("shard map: epoch %d, topics %v, durable %q on shard 0\n",
		p.smap.Epoch(), ctlTopic, dataTopic)

	// Generation fencing and subscription conservation on the killed
	// shard.
	if err := p.checkTakeover(victim); err != nil {
		return err
	}
	v := p.reps[victim]
	fmt.Printf("shard %d: primary gen %d killed at %d records; standby promoted at gen %d\n",
		victim, v.genP, v.stP.Seq(), v.genS)

	// Failure-domain isolation: only the victim's directory moved.
	for k := 0; k < nShards; k++ {
		got := p.dir.Shard(uint32(k)).Epoch()
		want := epochBefore[k]
		if k == victim {
			want++
		}
		if got != want {
			return fmt.Errorf("shard %d directory epoch %d after the kill, want %d — failover leaked across shards", k, got, want)
		}
	}

	// Conservation, exact per shard; throttles are a separate (zero,
	// uncredited) term printed for completeness.
	for k, st := range streams {
		l := st.law()
		fmt.Printf("%s ctl %q: published %d x %d = %d; delivered %d, recv-dropped %d, pub-dropped %d, throttled %d\n",
			names[k], ctlTopic[uint32(k)], l.Published, nsubs, l.Owed, l.Delivered, l.RecvDropped, l.PubDropped, l.Throttled)
		if err := checkFanout(l, 2*o.msgs); err != nil {
			return fmt.Errorf("%s: %w", names[k], err)
		}
	}
	fmt.Println("conservation: ok on every shard (zero subscriptions lost, no publisher blocked)")

	// The durable ledger on surviving shard 0: exactly once, cursor at
	// head, nothing stranded — the kill next door never touched it.
	dl, err := dur.check(2*o.msgs, p.reps[0].regP)
	if err != nil {
		return err
	}
	fmt.Printf("durable ledger on shard 0: ok (%d payloads exactly once, cursor %d at head, stranded %d)\n",
		dl.Published, dur.log.Head(), dl.Stranded)

	if err := reportIsolation(names, before, after, victim); err != nil {
		return err
	}
	fmt.Println("isolation: ok (surviving shards unperturbed by the kill)")
	return nil
}
