package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"flipc/internal/stats"
)

// perLayer lists the metrics of single layers, reported by the traced
// run. They carry no bound. Layer names are the package names; a row of
// a layer that is not on a workload's path reads 0 there, which is how
// the report demonstrates the layer separation rather than assuming it.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			better := "lower"
			if n == "nettrans.frames_per_flush" || n == "path.oneway_samples" {
				better = "higher"
			}
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "core.send_ns", "core.post_ns", "core.receive_ns", "core.acquire_ns")
	add("count", "core.allocs_per_msg")
	add("ns", "commbuf.alloc_free_ns", "commbuf.msg_by_id_ns")
	add("count", "commbuf.msg_by_id_allocs")
	add("ns", "waitfree.queue_cycle_ns", "waitfree.counter_incr_ns")
	add("ns", "engine.poll_send_ns", "engine.poll_deliver_ns", "engine.poll_idle_ns", "engine.poll_idle_64ep_ns")
	add("count", "engine.allocs_per_frame", "engine.polls_per_delivery", "engine.recv_drops", "engine.wire_busy")
	add("ns", "wire.encode_ns", "wire.decode_ns")
	add("count", "wire.decode_allocs")
	add("ns", "interconnect.fabric_trysend_ns", "interconnect.fabric_poll_ns")
	add("count", "interconnect.fabric_allocs_per_frame")
	add("ns", "nettrans.trysend_ns", "nettrans.trysend_uncorked_ns", "nettrans.flush_ns_per_frame", "nettrans.poll_ns")
	add("count", "nettrans.frames_per_flush", "nettrans.flush_held", "nettrans.flush_lost", "nettrans.rx_drops", "nettrans.allocs_per_frame", "nettrans.calls")
	add("ns", "msglib.outbox_send_ns", "msglib.inbox_receive_ns")
	add("count", "msglib.allocs_per_msg")
	add("ns", "topic.publish_ns", "topic.publish_ns_per_sub", "topic.receive_ns", "topic.durable_publish_ns", "topic.resume_to_first_ns", "topic.replay_pump_ns_per_frame")
	add("count", "topic.publish_allocs", "topic.fanout_dropped", "topic.fanout_throttled", "topic.calls")
	add("ns", "duralog.append_ns", "duralog.replay_ns_per_record")
	add("count", "duralog.append_allocs", "duralog.calls")
	add("B", "duralog.bytes_per_record")
	add("ns", "gateway.append_frame_ns", "gateway.decode_body_ns", "gateway.handle_publish_ns", "gateway.pump_ns_per_delivery", "gateway.popout_ns")
	add("count", "gateway.allocs_per_delivery", "gateway.client_queue_drops", "gateway.calls")
	add("us", "gateway.socket_rtt_us")
	add("ns", "path.oneway_p50_ns", "path.oneway_p99_ns", "path.oneway_p999_ns", "path.wait_transport_ns", "path.fit_fixed_ns", "path.residual_ns")
	add("ns/B", "path.fit_slope_ns_per_byte")
	add("count", "path.oneway_samples", "path.gc_cycles")
	add("ratio", "path.trace_overhead_ratio", "path.noisy_batch_share")
	return defs
}()

// path describes where a workload's messages go: which layers do work
// (their stage rows are measured; the others read 0) and which stage
// rows, how many times each, lie on the blocking path of one pingpong
// operation. path.residual_ns is the untraced one-way time minus that
// sum, so time no row accounts for stays visible.
type path struct {
	layers   []string
	blocking map[string]float64
}

var inner = []string{"core", "commbuf", "waitfree", "engine", "wire"}

var paths = map[string]path{
	"p2p_fabric": {
		layers: append([]string{"interconnect"}, inner...),
		blocking: map[string]float64{"core.post_ns": 1, "core.send_ns": 1, "engine.poll_send_ns": 1,
			"engine.poll_deliver_ns": 1, "core.receive_ns": 1, "core.acquire_ns": 1},
	},
	"p2p_tcp": {
		layers: append([]string{"nettrans"}, inner...),
		// The engine rows are taken on the fabric, so the fabric's share
		// is swapped for the transport's own rows. With one message in
		// flight every flush is one write of one frame, which is what
		// the uncorked TrySend row times.
		blocking: map[string]float64{"core.post_ns": 1, "core.send_ns": 1, "engine.poll_send_ns": 1,
			"engine.poll_deliver_ns": 1, "core.receive_ns": 1, "core.acquire_ns": 1,
			"interconnect.fabric_trysend_ns": -1, "interconnect.fabric_poll_ns": -1,
			"nettrans.trysend_ns": 1, "nettrans.trysend_uncorked_ns": 1, "nettrans.poll_ns": 1},
	},
	"fanout_topic": {
		layers: append([]string{"interconnect", "msglib", "topic"}, inner...),
		// The result waits for the last of 8 parts, so per-subscriber
		// rows count 8 times.
		blocking: map[string]float64{"topic.publish_ns": 1, "engine.poll_send_ns": topicSubs,
			"engine.poll_deliver_ns": topicSubs, "topic.receive_ns": topicSubs},
	},
	"durable_topic": {
		layers: append([]string{"interconnect", "msglib", "topic", "duralog"}, inner...),
		blocking: map[string]float64{"topic.durable_publish_ns": 1, "engine.poll_send_ns": topicSubs,
			"engine.poll_deliver_ns": topicSubs, "topic.receive_ns": topicSubs},
	},
	"gateway_edge": {
		layers: append([]string{"interconnect", "msglib", "topic", "gateway"}, inner...),
		blocking: map[string]float64{"gateway.append_frame_ns": 1, "gateway.handle_publish_ns": 1,
			"engine.poll_send_ns": 1, "engine.poll_deliver_ns": 1, "gateway.pump_ns_per_delivery": 1,
			"gateway.popout_ns": 1, "gateway.decode_body_ns": 1},
	},
}

func (p path) on(layer string) bool {
	for _, l := range p.layers {
		if l == layer {
			return true
		}
	}
	return false
}

// fitSizes are the message sizes behind the repo's own "15.45 µs +
// 6.25 ns/byte": a least-squares line through the one-way time at each.
var fitSizes = []int{64, 128, 256, 512, 1024}

// fit measures the untraced one-way time at each message size and fits
// fixed cost and per-byte slope.
func fit(c *config, w *workload, tcp bool) (stats.Fit, error) {
	var xs, ys []float64
	for _, size := range fitSizes {
		r, err := newP2PRig(c, tcp, size)
		if err != nil {
			return stats.Fit{}, err
		}
		x := &run{w: w, r: r}
		_, err = x.window(1, w.pingBatch, 0, true, nil) // one batch of warm-up
		var ph *phase
		if err == nil {
			ph, err = x.pingpong(c.phase(1.0/32), nil)
		}
		r.close()
		if err != nil {
			return stats.Fit{}, fmt.Errorf("fit at %d bytes: %w", size, err)
		}
		xs = append(xs, float64(size))
		ys = append(ys, quietDecile(ph.wall))
	}
	return stats.LinearFit(xs, ys)
}

// runStages measures the stage rows of every layer on the path.
func runStages(c *config, p path) (*stages, error) {
	s := newStages(c)
	size := p2pMessageSize
	builders := []struct {
		layer string
		build func() (stage, error)
	}{
		{"core", func() (stage, error) { return stageCore(s, size) }},
		{"engine", func() (stage, error) { return stageEngineIdle(s) }},
		{"commbuf", func() (stage, error) { return stageCommbuf(s, size) }},
		{"waitfree", func() (stage, error) { return stageWaitfree(s) }},
		{"wire", func() (stage, error) { return stageWire(s, size) }},
		// The engine rows are taken on the fabric, so the fabric's rows
		// are needed on every path: p2p_tcp takes its share back out.
		{"engine", func() (stage, error) { return stageInterconnect(s, size) }},
		{"nettrans", func() (stage, error) { return stageNettrans(s, size, true) }},
		{"nettrans", func() (stage, error) { return stageNettrans(s, size, false) }},
		{"msglib", func() (stage, error) { return stageMsglib(s) }},
		{"topic", func() (stage, error) { return stageTopic(s, c, false) }},
		{"duralog", func() (stage, error) { return stageTopic(s, c, true) }},
		{"duralog", func() (stage, error) { return stageDuralog(s, c) }},
		{"gateway", func() (stage, error) { return stageGateway(s, c) }},
	}
	var built []stage
	defer func() {
		for _, st := range built {
			if st.done != nil {
				st.done()
			}
		}
	}()
	for _, b := range builders {
		if !p.on(b.layer) {
			continue
		}
		st, err := b.build()
		built = append(built, st)
		if err != nil {
			return nil, fmt.Errorf("stage rows of %s: %w", b.layer, err)
		}
	}
	if err := s.run(built); err != nil {
		return nil, err
	}
	return s, nil
}

// tracedShare is the share of the run's seconds each of the traced
// run's three live phases gets; the fit and the stage rows use the rest.
const tracedShare = 3.0 / 16

// runTraced measures the per-layer metrics of one workload: an untraced
// reference pingpong, then pingpong and stream with spans recorded
// around every call into a layer, then the stage rows.
func runTraced(c *config, w *workload) *result {
	res := &result{Workload: w.name, Traced: true, Metrics: map[string]metricValue{}, Health: map[string]float64{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{0, d.Unit}
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	fail := func(err error) *result {
		res.Err = err.Error()
		return res
	}
	p := paths[w.name]
	one := *c
	one.setups = 1
	x, _, err := setUp(&one, w)
	if err != nil {
		return fail(err)
	}
	defer x.r.close()

	ref, err := x.pingpong(c.phase(tracedShare), nil)
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	c0 := x.r.counters()
	del0 := x.delivered
	ping, err := x.pingpong(c.phase(tracedShare), tr)
	if err != nil {
		return fail(err)
	}
	c1 := x.r.counters()
	waitTransport := tr.selfPerCall("wait.transport")
	strm, err := x.stream(c.phase(tracedShare), tr)
	if err != nil {
		return fail(err)
	}
	c2 := x.r.counters()
	x.conserve(res)
	if err := tr.write(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
		return fail(err)
	}

	// Counts read at the layer boundaries during the traced phases.
	live := float64(x.delivered - del0)
	set("engine.polls_per_delivery", (c2["engine.polls"]-c0["engine.polls"])/live)
	for _, n := range []string{"engine.recv_drops", "engine.wire_busy", "nettrans.flush_held", "nettrans.flush_lost",
		"nettrans.rx_drops", "nettrans.calls", "topic.fanout_dropped", "topic.fanout_throttled",
		"duralog.calls", "gateway.client_queue_drops"} {
		set(n, c2[n]-c0[n])
	}
	if polls := c2["nettrans.send_polls"] - c1["nettrans.send_polls"]; polls > 0 {
		set("nettrans.frames_per_flush", (c2["nettrans.sent"]-c1["nettrans.sent"])/polls)
	}
	set("topic.calls", float64(tr.calls("topic.")))
	set("gateway.calls", float64(tr.calls("gateway.")))
	if t, ok := x.r.(*durableRig); ok {
		set("topic.resume_to_first_ns", quietDecile(t.firstNs))
		if t.pumpFrames > 0 {
			set("topic.replay_pump_ns_per_frame", float64(t.pumpNs)/float64(t.pumpFrames))
		}
	}

	// The whole path.
	oneway := quietDecile(ref.wall)
	set("path.oneway_p50_ns", quantile(ping.lat, 0.5))
	set("path.oneway_p99_ns", quantile(ping.lat, 0.99))
	set("path.oneway_p999_ns", quantile(ping.lat, 0.999))
	set("path.oneway_samples", float64(len(ping.lat)))
	set("path.wait_transport_ns", waitTransport)
	set("path.trace_overhead_ratio", quietDecile(ping.wall)/oneway)
	np, ns := float64(len(ping.wall)), float64(len(strm.wall))
	set("path.noisy_batch_share", (noisyShare(ping.wall, quietDecile(ping.wall))*np+noisyShare(strm.wall, quietDecile(strm.wall))*ns)/(np+ns))
	set("path.gc_cycles", float64(ping.gcCycles+strm.gcCycles))
	if strings.HasPrefix(w.name, "p2p_") {
		f, err := fit(c, w, w.name == "p2p_tcp")
		if err != nil {
			return fail(err)
		}
		set("path.fit_fixed_ns", f.Intercept)
		set("path.fit_slope_ns_per_byte", f.Slope)
	}

	// The stage rows.
	s, err := runStages(c, p)
	if err != nil {
		return fail(err)
	}
	for _, d := range perLayer {
		layer := d.Name[:strings.IndexByte(d.Name, '.')]
		if d.Unit == "ns" && p.on(layer) && len(s.ns[d.Name]) > 0 {
			set(d.Name, s.row(d.Name))
		}
	}
	if p.on("duralog") {
		set("duralog.bytes_per_record", s.row("duralog.bytes_per_record"))
		set("duralog.append_allocs", s.allocs("duralog.append_ns"))
	}
	set("core.allocs_per_msg", s.allocs("core.post_ns", "core.send_ns", "core.receive_ns", "core.acquire_ns"))
	set("commbuf.msg_by_id_allocs", s.allocs("commbuf.msg_by_id_ns"))
	set("engine.allocs_per_frame", s.allocs("engine.poll_send_ns", "engine.poll_deliver_ns"))
	set("wire.decode_allocs", s.allocs("wire.decode_ns"))
	if p.on("interconnect") {
		set("interconnect.fabric_allocs_per_frame", s.allocs("interconnect.fabric_trysend_ns", "interconnect.fabric_poll_ns"))
	}
	set("nettrans.allocs_per_frame", s.allocs("nettrans.trysend_ns", "nettrans.flush_ns_per_frame", "nettrans.reader", "nettrans.poll_ns"))
	set("msglib.allocs_per_msg", s.allocs("msglib.outbox_send_ns", "msglib.inbox_receive_ns"))
	set("topic.publish_allocs", s.allocs("topic.publish_ns"))
	set("topic.publish_ns_per_sub", s.row("topic.publish_ns")/topicSubs)
	set("gateway.allocs_per_delivery", s.allocs("gateway.append_frame_ns", "gateway.handle_publish_ns",
		"gateway.pump_ns_per_delivery", "gateway.popout_ns", "gateway.decode_body_ns"))
	if p.on("gateway") {
		rtt, err := socketRTT()
		if err != nil {
			return fail(err)
		}
		set("gateway.socket_rtt_us", rtt)
	}
	residual := oneway
	for name, times := range p.blocking {
		residual -= times * s.row(name)
	}
	set("path.residual_ns", residual)

	res.Health["reference.oneway_ns"] = oneway
	res.Health["pingpong.batches"] = float64(len(ping.wall))
	res.Health["stream.batches"] = float64(len(strm.wall))
	res.Health["spans"] = float64(tr.next)
	return res
}
