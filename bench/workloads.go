package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// workload is one row of the benchmark's workload table. The counts are
// fixed here and never adapted at run time: a batch is sized to about
// 3 ms on a 2-vCPU guest (some 2 500 batches in an 8-second phase, so
// that the 1 000-batch floor is only met by a run slowed 2.5-fold), and
// a change in the program moves the batch time, not the batch count.
type workload struct {
	name string
	why  string
	// fanout is how many deliveries one operation (send or publish)
	// is expected to produce.
	fanout int
	// window is the number of operations in flight in the stream phase;
	// the pingpong phase always runs with one.
	window int
	// pingBatch and streamBatch are operations per batch.
	pingBatch, streamBatch int
	// warmPing and warmStream are the fixed-count warm-up, part of setup.
	warmPing, warmStream int
	build                func(c *config, w *workload) (rig, error)
}

// rig is one workload's system under test plus the harness state that
// feeds and checks it. All methods run on the generator goroutine.
type rig interface {
	// send issues operation seq: one Send, Publish or client frame.
	send(seq uint64, tr *tracer) error
	// pump runs one pass over every engine and receiver and returns how
	// many deliveries arrived; each is verified before it is counted.
	pump(tr *tracer) (int, error)
	// ledger returns the losses the program's own public counters admit
	// to since the rig was built, by term.
	ledger() map[string]uint64
	// counters returns per-layer counts read from public ledgers.
	counters() map[string]float64
	close()
}

// roundStreamer is implemented by a rig whose stream phase is a
// sequence of self-contained rounds rather than a window of operations.
type roundStreamer interface {
	// streamRound runs one round and returns what its timed part cost.
	streamRound(tr *tracer) (roundSample, error)
}

type roundSample struct {
	deliveries          int
	wallNs, cpuNs       int64
	mallocs, allocBytes uint64
}

var workloads = []workload{
	{
		name:   "p2p_fabric",
		why:    "raw core endpoints over the in-process fabric, 120-B payload, W=32: the paper's Figure-4 path; nettrans, topic, duralog and gateway do no work",
		fanout: 1, window: 32, pingBatch: 3584, streamBatch: 5120, warmPing: 20000, warmStream: 60000,
		build: func(c *config, w *workload) (rig, error) { return newP2PRig(c, false, p2pMessageSize) },
	},
	{
		name:   "p2p_tcp",
		why:    "the same traffic over two corked nettrans transports on 127.0.0.1, W=32: nettrans dominates, so a core-path change must not move it",
		fanout: 1, window: 32, pingBatch: 128, streamBatch: 2560, warmPing: 1000, warmStream: 16000,
		build: func(c *config, w *workload) (rig, error) { return newP2PRig(c, true, p2pMessageSize) },
	},
	{
		name:   "fanout_topic",
		why:    "one topic.Publisher to 8 subscribers on 2 domains, 64-B payload, W=4 publishes: topic and msglib dominate; the no-log control for durable_topic",
		fanout: topicSubs, window: 4, pingBatch: 448, streamBatch: 448, warmPing: 6000, warmStream: 12000,
		build: func(c *config, w *workload) (rig, error) { return newTopicRig(c, false) },
	},
	{
		name:   "durable_topic",
		why:    "fanout_topic with a duralog: pingpong is the write use (journaled publish), stream is the read use (5000-record replay to a joining subscriber)",
		fanout: topicSubs, window: 1, pingBatch: 384, streamBatch: 1, warmPing: 4000, warmStream: 2,
		build: func(c *config, w *workload) (rig, error) {
			r, err := newTopicRig(c, true)
			return &durableRig{r}, err
		},
	},
	{
		name:   "gateway_edge",
		why:    "gateway.Mux driven poll-mode, client A publishes on 16 seeded topics, client B holds a wildcard, W=32: gateway codec, mux lock and pattern index dominate",
		fanout: 1, window: 32, pingBatch: 896, streamBatch: 2048, warmPing: 8000, warmStream: 20000,
		build: func(c *config, w *workload) (rig, error) { return newGatewayRig(c) },
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// gen makes every input from the seed: the payload bodies and (for the
// gateway) the topic names. The program under test sees only these.
type gen struct {
	seed   uint64
	bodies [64][]byte
	topics []string
}

func newGen(seed uint64, payload int) *gen {
	g := &gen{seed: seed}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := range g.bodies {
		g.bodies[i] = make([]byte, payload)
		rng.Read(g.bodies[i])
	}
	for i := 0; i < gatewayTopics; i++ {
		g.topics = append(g.topics, fmt.Sprintf("bench.t%08x", rng.Uint32()))
	}
	return g
}

// mix is splitmix64: the per-message fingerprint is mix(seed^seq).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes message seq into dst: sequence, fingerprint, seeded body.
func (g *gen) fill(dst []byte, seq uint64) int {
	b := g.bodies[seq%uint64(len(g.bodies))]
	n := copy(dst, b)
	binary.BigEndian.PutUint64(dst[0:8], seq)
	binary.BigEndian.PutUint64(dst[8:16], mix(g.seed^seq))
	return n
}

// checker verifies one receiver's stream in the timed loop: every lane
// is FIFO and gap-free, every fingerprint matches, and one message in
// 64 is compared byte for byte.
type checker struct {
	g     *gen
	next  []uint64 // next expected sequence per lane; seq%len(next) is the lane
	count uint64
}

func newChecker(g *gen, lanes int, first uint64) *checker {
	c := &checker{g: g, next: make([]uint64, lanes)}
	for i := range c.next {
		c.next[i] = first + uint64(i)
	}
	return c
}

func (c *checker) check(p []byte) error {
	if len(p) < 16 {
		return fmt.Errorf("delivery of %d bytes is too short to carry a sequence", len(p))
	}
	seq := binary.BigEndian.Uint64(p[0:8])
	lane := seq % uint64(len(c.next))
	if seq != c.next[lane] {
		return fmt.Errorf("sequence %d arrived where %d was due (lane %d): stream is not FIFO and gap-free", seq, c.next[lane], lane)
	}
	c.next[lane] = seq + uint64(len(c.next))
	if fp := binary.BigEndian.Uint64(p[8:16]); fp != mix(c.g.seed^seq) {
		return fmt.Errorf("sequence %d carries fingerprint %#x, want %#x", seq, fp, mix(c.g.seed^seq))
	}
	if seq%64 == 0 {
		want := c.g.bodies[seq%uint64(len(c.g.bodies))]
		if len(p) != len(want) || !bytes.Equal(p[16:], want[16:]) {
			return fmt.Errorf("sequence %d payload differs from the generated body", seq)
		}
	}
	c.count++
	return nil
}

// run is the harness state that outlives a phase: the running sequence
// and the operation and delivery totals the conservation check uses.
type run struct {
	w         *workload
	r         rig
	seq       uint64
	attempted uint64 // deliveries expected: operations × recipients
	delivered uint64
	stalled   bool
}

// phase is one timed phase's samples.
type phase struct {
	wall, cpu  []float64 // per batch: ns per unit (operation or delivery)
	lat        []float64 // per operation, traced pingpong only
	deliveries uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

// stallAfter is how long a closed loop may go without a delivery before
// what is in flight is declared lost. No workload is expected to reach it.
const stallAfter = 3 * time.Second

// window drives the closed loop: at most window operations in flight,
// bounded by deliveries (sent − received), in fixed-count batches until
// dur has passed. perOp selects the batch unit: an operation (pingpong:
// the time until the last recipient has the message) or a delivery.
func (x *run) window(window, batchOps int, dur time.Duration, perOp bool, tr *tracer) (*phase, error) {
	fan := x.w.fanout
	ph := &phase{wall: make([]float64, 0, 4096), cpu: make([]float64, 0, 4096)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	bT, bC, bDel := start, cpuNanos(), x.delivered
	del0 := x.delivered
	batchDel := uint64(batchOps * fan)
	maxInflight := window * fan
	inflight, idle := 0, 0
	markDel, markT := x.delivered, start
	stopping := false // a zero dur stops at the first batch boundary: one fixed-count batch
	var opStart int64
	for !(stopping && inflight == 0) {
		for !stopping && inflight+fan <= maxInflight {
			if perOp {
				opStart = tr.clock()
			}
			if err := x.r.send(x.seq, tr); err != nil {
				return nil, fmt.Errorf("send %d: %w", x.seq, err)
			}
			x.seq++
			x.attempted += uint64(fan)
			inflight += fan
			if x.attempted-x.delivered > uint64(maxInflight) {
				return nil, fmt.Errorf("in-flight bound broken: sent %d − received %d > W %d", x.attempted, x.delivered, maxInflight)
			}
		}
		n, err := x.r.pump(tr)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			if idle++; idle&0xffff == 0 {
				now := time.Now()
				if markDel != x.delivered {
					markDel, markT = x.delivered, now
				} else if now.Sub(markT) > stallAfter {
					x.stalled = true
					break
				}
			}
			continue
		}
		inflight -= n
		x.delivered += uint64(n)
		if perOp && tr != nil && inflight == 0 {
			ph.lat = append(ph.lat, float64(tr.clock()-opStart))
		}
		if got := x.delivered - bDel; got >= batchDel {
			now, c := time.Now(), cpuNanos()
			units := float64(got)
			if perOp {
				units /= float64(fan)
			}
			ph.wall = append(ph.wall, float64(now.Sub(bT))/units)
			ph.cpu = append(ph.cpu, float64(c-bC)/units)
			bT, bC, bDel = now, c, x.delivered
			if now.Sub(start) >= dur {
				stopping = true
			}
		}
	}
	runtime.ReadMemStats(&m1)
	ph.deliveries = x.delivered - del0
	ph.mallocs, ph.allocBytes, ph.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return ph, nil
}

// rounds drives a roundStreamer: each round is one batch.
func (x *run) rounds(rs roundStreamer, minRounds int, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < dur; n++ {
		s, err := rs.streamRound(tr)
		if err != nil {
			return nil, err
		}
		x.attempted += uint64(s.deliveries)
		x.delivered += uint64(s.deliveries)
		ph.deliveries += uint64(s.deliveries)
		ph.wall = append(ph.wall, float64(s.wallNs)/float64(s.deliveries))
		ph.cpu = append(ph.cpu, float64(s.cpuNs)/float64(s.deliveries))
		ph.mallocs += s.mallocs
		ph.allocBytes += s.allocBytes
	}
	runtime.ReadMemStats(&m1)
	ph.gcCycles = m1.NumGC - m0.NumGC
	return ph, nil
}

// stream runs the workload's stream phase in whichever shape it has.
func (x *run) stream(dur time.Duration, tr *tracer) (*phase, error) {
	if rs, ok := x.r.(roundStreamer); ok {
		return x.rounds(rs, x.w.streamBatch, dur, tr)
	}
	return x.window(x.w.window, x.w.streamBatch, dur, false, tr)
}

// pingpong runs the one-in-flight phase.
func (x *run) pingpong(dur time.Duration, tr *tracer) (*phase, error) {
	return x.window(1, x.w.pingBatch, dur, true, tr)
}

// slices is how many slices each timed phase is cut into. The two
// phases alternate slice by slice, so that each metric's batches span
// the whole run: a burst of interference a few seconds long then costs
// both phases some batches instead of one phase most of them.
const slices = 8

// alternate runs the pingpong and stream phases, each for a total of
// each, in alternating slices, and returns the merged samples.
func (x *run) alternate(each time.Duration) (ping, strm *phase, err error) {
	ping, strm = &phase{}, &phase{}
	for i := 0; i < slices && !x.stalled; i++ {
		p, err := x.pingpong(each/slices, nil)
		if err != nil {
			return nil, nil, err
		}
		ping.merge(p)
		if x.stalled {
			break
		}
		s, err := x.stream(each/slices, nil)
		if err != nil {
			return nil, nil, err
		}
		strm.merge(s)
	}
	return ping, strm, nil
}

func (ph *phase) merge(o *phase) {
	ph.wall = append(ph.wall, o.wall...)
	ph.cpu = append(ph.cpu, o.cpu...)
	ph.deliveries += o.deliveries
	ph.mallocs += o.mallocs
	ph.allocBytes += o.allocBytes
	ph.gcCycles += o.gcCycles
}

// warm runs the fixed-count warm-up (both shapes) that ends setup.
func (x *run) warm() error {
	if _, err := x.window(1, x.w.warmPing, 0, true, nil); err != nil {
		return err
	}
	if rs, ok := x.r.(roundStreamer); ok {
		_, err := x.rounds(rs, x.w.warmStream, 0, nil)
		return err
	}
	_, err := x.window(x.w.window, x.w.warmStream, 0, false, nil)
	return err
}
