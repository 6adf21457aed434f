package main

import (
	"fmt"

	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// runTopics runs the prioritized pub/sub scenario on the virtual-time
// cluster: subscribers on every node but 0 join a control topic and a
// bulk topic; node 0 publishes on both. Phase one measures the control
// topic solo; phase two saturates the bulk topic and measures the
// control topic again. The engine's priority policy plus a quantum
// reservation must keep the contended control p99 near the solo
// baseline, and the fanout ledgers must conserve every message.
func runTopics(o opts) error {
	if o.nodes == 2 {
		o.nodes = 3 // the default ping pair is too small for a fanout demo
	}
	if o.nodes < 2 {
		return fmt.Errorf("-topics needs at least 2 nodes")
	}
	mesh := interconnect.DefaultMeshConfig()
	if o.batch > 0 {
		// Pending-buffer aggregation on the simulated wire: bulk runs
		// cork and pay one route setup, control frames bypass, and the
		// deadline bounds how long a corked frame can age. The ctl-p99
		// assertion below must hold unchanged — that is the point.
		mesh.BatchFrames = o.batch
		mesh.FlushDeadline = sim.Time(o.flushDl.Nanoseconds())
	}
	sc, err := newScenario(o, simcluster.Config{
		Mesh:       mesh,
		NumBuffers: 4 * o.window,
		// A tight send quantum with a control-class reservation makes the
		// engine — not the wire — the choke point when bulk overloads:
		// bulk is capped below its offered rate, its backlog hits the
		// publisher window, and the excess becomes counted optimistic
		// drops while the reserved slots keep control latency flat.
		Engine: engine.Config{
			Policy:          engine.PolicyPriority,
			SendQuantum:     3,
			ReservedQuantum: 2,
			ReservePriority: 1,
		},
	})
	if err != nil {
		return err
	}
	defer sc.close()

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	ctl, err := sc.topicStream(dir, "ctl", topic.Control, 0)
	if err != nil {
		return err
	}
	bulk, err := sc.topicStream(dir, "bulk", topic.Bulk, 0)
	if err != nil {
		return err
	}
	nsubs := len(ctl.subs)
	sc.pump(ctl)
	sc.pump(bulk)
	settled := balanced(ctl, bulk)

	// Phase one: control topic alone.
	sc.settleUntil(sc.phase(ctl.publish), settled)
	solo, err := summarize(ctl.lat...)
	if err != nil {
		return fmt.Errorf("solo phase: %w", err)
	}

	// Phase two: bulk saturation alongside the same control cadence.
	deadline := sc.phase(ctl.publish)
	bulkGap := sim.Time(o.bulkGap.Nanoseconds())
	sc.schedule(int(sim.Time(o.msgs)*sc.gap/bulkGap), bulkGap, bulk.publish)
	sc.settleUntil(deadline, settled)
	contended, err := summarize(ctl.lat...)
	if err != nil {
		return fmt.Errorf("contended phase: %w", err)
	}

	// Conservation: each topic's ledgers must account for exactly
	// published × subscribers messages, with no silent loss.
	fmt.Printf("flipcsim -topics: %d nodes, %d subscribers/topic, poll %v, ctl gap %v, bulk gap %v\n",
		o.nodes, nsubs, o.poll, o.gap, o.bulkGap)
	for _, t := range []struct {
		name string
		st   *stream
	}{{"ctl", ctl}, {"bulk", bulk}} {
		l := t.st.law()
		fmt.Printf("topic %-4s: published %d x %d subs = %d; delivered %d, recv-dropped %d, pub-dropped %d\n",
			t.name, l.Published, nsubs, l.Owed, l.Delivered, l.RecvDropped, l.PubDropped)
		if err := l.Err(); err != nil {
			return fmt.Errorf("topic %s: %w", t.name, err)
		}
	}
	fmt.Println("conservation: ok (delivered + counted drops == published x subscribers)")

	return reportDegradation("solo", "contended", solo, contended, "under bulk saturation", 2)
}
