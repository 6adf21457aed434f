// Package interconnect defines the transport abstraction the messaging
// engine drives, plus two implementations:
//
//   - Mesh: a discrete-event model of the Paragon's 2D mesh
//     interconnect (wormhole-routed, 200 MB/s peak links of which the
//     best software achieves 160 MB/s, i.e. 6.25 ns/byte), used by the
//     virtual-time experiments, optionally corking per-destination
//     runs (MeshConfig.BatchFrames);
//   - Fabric: a real, goroutine-safe in-process transport used by the
//     concurrency tests, examples, and wall-clock benchmarks. It never
//     corks: a frame TrySend accepts is in the destination's queue.
//
// Both deliver fixed-size frames reliably and in order per source →
// destination pair, which is the transport guarantee FLIPC's optimistic
// protocol relies on (§Message Transfer): because receivers always
// accept from the interconnect (discarding when no buffer is posted),
// a reliable interconnect cannot deadlock. Mux shares any transport
// among several communication buffers on one node.
package interconnect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flipc/internal/sim"
	"flipc/internal/wire"
)

// Transport moves fixed-size frames between nodes. The messaging
// engine calls these from its non-preemptible event loop, so
// implementations must never block:
//
//   - TrySend queues a frame for dst, returning false if the local
//     injection port is saturated (the engine retries on a later loop
//     pass). The transport copies the frame before returning.
//   - Poll returns the next frame addressed to the local node, or
//     false. The returned slice is owned by the caller.
type Transport interface {
	TrySend(dst wire.NodeID, frame []byte) bool
	Poll() ([]byte, bool)
	LocalNode() wire.NodeID
}

// PeerStatusReporter is optionally implemented by transports that
// track peer liveness (e.g. nettrans over real sockets, where links
// fail and recover). The engine type-asserts for it and, when a
// TrySend is refused, uses PeerUp to distinguish "peer gone" (counted
// as Stats.PeerDown) from "wire busy, retry soon" (Stats.WireBusy).
// The in-process Mesh and Fabric transports are reliable by
// construction and do not implement it.
type PeerStatusReporter interface {
	PeerUp(dst wire.NodeID) bool
}

// BatchFlusher is an optional transport capability for fanout-heavy
// workloads: TrySend may buffer accepted frames per destination peer,
// and FlushSends pushes everything buffered to the wire in one write
// per peer, amortizing per-frame syscall and wire-header work across a
// burst of frames to the same node (a topic publisher's fanout run).
// The engine type-asserts for it and calls FlushSends at the end of
// every send pass — making FlushSends the enforcement point for the
// transport's flush deadline. A transport with a deadline may hold a
// buffered frame across passes until it expires; every accepted frame
// is still eventually flushed or counted lost, never silently
// stranded. Two transports cork: nettrans (Config.BatchWrites) on real
// sockets and Mesh (MeshConfig.BatchFrames) in virtual time, so sim
// scenarios exercise the aggregation path the wire transport runs.
// Wrappers (Mux ports, faultinject.Injector) forward the call.
type BatchFlusher interface {
	FlushSends()
}

// Stats counts transport activity at one port.
type Stats struct {
	Sent      uint64 // frames accepted by TrySend
	Delivered uint64 // frames returned by Poll
	SendBusy  uint64 // TrySend rejections (port saturated)
}

// MeshConfig describes the simulated mesh.
type MeshConfig struct {
	// Width and Height give the mesh dimensions; node n sits at
	// (n%Width, n/Width).
	Width, Height int
	// NSPerByte is the link serialization cost. The paper's measured
	// slope is 6.25 ns/byte (160 MB/s).
	NSPerByte float64
	// HopLatency is the per-hop routing latency.
	HopLatency sim.Time
	// RouteSetup is the fixed per-message wire cost (head flit routing,
	// DMA engine startup at both ends).
	RouteSetup sim.Time
	// PortDepth bounds each node's inbox; 0 means unbounded. FLIPC's
	// deadlock-avoidance argument assumes nodes always drain the
	// interconnect, so experiments use a generous depth.
	PortDepth int
	// BatchFrames, when > 0, gives each port the pending-buffer
	// contract (interconnect.BatchFlusher): TrySend corks frames into
	// per-destination runs and FlushSends transmits each run paying
	// RouteSetup once for the whole run — the aggregation win
	// `flipcsim -topics -batch` asserts. A run reaching BatchFrames
	// transmits inline; control-class frames (wire.Expedited) transmit
	// immediately, after flushing their destination's run so per-pair
	// order holds. 0 (the default) keeps frame-at-a-time sends with
	// RouteSetup per frame.
	BatchFrames int
	// FlushDeadline holds a corked run across FlushSends calls until
	// its oldest frame has aged this much virtual time; 0 flushes every
	// run on every FlushSends.
	FlushDeadline sim.Time
}

// DefaultMeshConfig returns the Paragon-calibrated mesh (values
// documented in internal/experiments/calibration.go).
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{
		Width:      4,
		Height:     4,
		NSPerByte:  6.25,
		HopLatency: 100 * sim.Nanosecond,
		RouteSetup: 1200 * sim.Nanosecond,
	}
}

// Mesh is the simulated Paragon interconnect. It is single-threaded:
// all calls must come from simulation events on the same clock.
type Mesh struct {
	clock *sim.Clock
	cfg   MeshConfig
	ports map[wire.NodeID]*meshPort
}

// NewMesh creates a mesh on the given clock.
func NewMesh(clock *sim.Clock, cfg MeshConfig) (*Mesh, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("interconnect: mesh %dx%d must be at least 1x1", cfg.Width, cfg.Height)
	}
	if cfg.NSPerByte < 0 || cfg.HopLatency < 0 || cfg.RouteSetup < 0 {
		return nil, fmt.Errorf("interconnect: negative mesh timing")
	}
	return &Mesh{clock: clock, cfg: cfg, ports: make(map[wire.NodeID]*meshPort)}, nil
}

// Attach creates the transport port for a node. Each node may attach
// once.
func (m *Mesh) Attach(node wire.NodeID) (Transport, error) {
	if int(node) >= m.cfg.Width*m.cfg.Height {
		return nil, fmt.Errorf("interconnect: node %d outside %dx%d mesh", node, m.cfg.Width, m.cfg.Height)
	}
	if _, dup := m.ports[node]; dup {
		return nil, fmt.Errorf("interconnect: node %d already attached", node)
	}
	p := &meshPort{mesh: m, node: node}
	m.ports[node] = p
	return p, nil
}

// Hops returns the Manhattan routing distance between two nodes.
func (m *Mesh) Hops(a, b wire.NodeID) int {
	ax, ay := int(a)%m.cfg.Width, int(a)/m.cfg.Width
	bx, by := int(b)%m.cfg.Width, int(b)/m.cfg.Width
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// WireTime returns the modeled time for a frame of n bytes to travel
// from a to b, excluding injection-port queueing.
func (m *Mesh) WireTime(a, b wire.NodeID, n int) sim.Time {
	return m.cfg.RouteSetup +
		sim.Time(m.Hops(a, b))*m.cfg.HopLatency +
		sim.Time(float64(n)*m.cfg.NSPerByte)
}

type meshPort struct {
	mesh   *Mesh
	node   wire.NodeID
	inbox  [][]byte
	txFree sim.Time // when the injection link is next idle
	stats  Stats

	// Pending-buffer state (MeshConfig.BatchFrames > 0): per-destination
	// corked runs, flushed by FlushSends or a full/expedited trigger.
	pending map[wire.NodeID]*meshRun
	order   []wire.NodeID // destinations in first-corked order
}

// meshRun is one destination's corked frames plus the age of the
// oldest.
type meshRun struct {
	frames [][]byte
	since  sim.Time
}

// TrySend implements Transport. The sending link serializes frames at
// NSPerByte, so back-to-back sends queue behind each other — this is
// what bounds throughput in the bandwidth experiments. With
// BatchFrames set, frames cork into per-destination runs instead (see
// MeshConfig.BatchFrames); control-class frames transmit immediately.
func (p *meshPort) TrySend(dst wire.NodeID, frame []byte) bool {
	dp := p.mesh.ports[dst]
	if dp == nil {
		return false // unreachable node: drop at source
	}
	bf := p.mesh.cfg.BatchFrames
	var corked int
	if bf > 0 {
		if run := p.pending[dst]; run != nil {
			corked = len(run.frames)
		}
	}
	if p.mesh.cfg.PortDepth > 0 && len(dp.inbox)+corked >= p.mesh.cfg.PortDepth {
		p.stats.SendBusy++
		return false
	}
	cp := append([]byte(nil), frame...)
	if bf <= 0 {
		p.transmit(dst, dp, [][]byte{cp})
		p.stats.Sent++
		return true
	}
	if wire.Expedited(frame[6]) {
		// Control class: flush the destination's corked run first (the
		// mesh delivers in order per pair), then go immediately.
		p.flushRun(dst)
		p.transmit(dst, dp, [][]byte{cp})
		p.stats.Sent++
		return true
	}
	run := p.pending[dst]
	if run == nil {
		run = &meshRun{}
		if p.pending == nil {
			p.pending = make(map[wire.NodeID]*meshRun)
		}
		p.pending[dst] = run
		p.order = append(p.order, dst)
	}
	if len(run.frames) == 0 {
		run.since = p.mesh.clock.Now()
	}
	run.frames = append(run.frames, cp)
	p.stats.Sent++
	if len(run.frames) >= bf {
		p.flushRun(dst)
	}
	return true
}

// transmit models one wire transaction to dst: RouteSetup and the hop
// latency are paid once for the run, serialization per byte; frame k
// arrives as its last byte clears the link. This is the aggregation
// win: a flushed run of n frames costs one RouteSetup where
// frame-at-a-time sends cost n.
func (p *meshPort) transmit(dst wire.NodeID, dp *meshPort, frames [][]byte) {
	start := p.mesh.clock.Now()
	if p.txFree > start {
		start = p.txFree
	}
	base := start + p.mesh.cfg.RouteSetup +
		sim.Time(p.mesh.Hops(p.node, dst))*p.mesh.cfg.HopLatency
	var serial sim.Time
	for _, f := range frames {
		f := f
		serial += sim.Time(float64(len(f)) * p.mesh.cfg.NSPerByte)
		p.mesh.clock.At(base+serial, func() {
			dp.inbox = append(dp.inbox, f)
		})
	}
	p.txFree = start + serial
}

// flushRun transmits dst's corked run, if any.
func (p *meshPort) flushRun(dst wire.NodeID) {
	run := p.pending[dst]
	if run == nil || len(run.frames) == 0 {
		return
	}
	frames := run.frames
	run.frames = nil
	p.transmit(dst, p.mesh.ports[dst], frames)
}

// FlushSends implements BatchFlusher: the engine's end-of-pass call
// transmits every corked run whose oldest frame has reached the flush
// deadline (every run, when no deadline is configured). A no-op
// without BatchFrames.
func (p *meshPort) FlushSends() {
	if p.mesh.cfg.BatchFrames <= 0 || len(p.pending) == 0 {
		return
	}
	now := p.mesh.clock.Now()
	dl := p.mesh.cfg.FlushDeadline
	for _, dst := range p.order {
		run := p.pending[dst]
		if run == nil || len(run.frames) == 0 {
			continue
		}
		if dl > 0 && now-run.since < dl {
			continue
		}
		p.flushRun(dst)
	}
}

// Poll implements Transport.
func (p *meshPort) Poll() ([]byte, bool) {
	if len(p.inbox) == 0 {
		return nil, false
	}
	f := p.inbox[0]
	p.inbox = p.inbox[1:]
	p.stats.Delivered++
	return f, true
}

// LocalNode implements Transport.
func (p *meshPort) LocalNode() wire.NodeID { return p.node }

// Stats returns a snapshot of the port's counters.
func (p *meshPort) Stats() Stats { return p.stats }

// Fabric is a real in-process transport: per-node bounded queues,
// safe for concurrent use by engine goroutines on every node. Delivery
// is immediate (no modeled latency) — wall-clock behaviour comes from
// the real Go scheduler and memory system.
type Fabric struct {
	depth int
	mu    sync.Mutex // serializes Attach
	// ports is indexed by node. Ports are attach-only: Attach publishes
	// a grown copy, senders look up with one atomic load.
	ports atomic.Pointer[[]*fabricPort]
}

// NewFabric creates a fabric whose ports queue up to depth frames
// (default 256).
func NewFabric(depth int) *Fabric {
	if depth <= 0 {
		depth = 256
	}
	f := &Fabric{depth: depth}
	f.ports.Store(new([]*fabricPort))
	return f
}

// port returns node's port, or nil when no such node is attached.
func (f *Fabric) port(node wire.NodeID) *fabricPort {
	if t := *f.ports.Load(); int(node) < len(t) {
		return t[node]
	}
	return nil
}

// Attach creates the port for a node.
func (f *Fabric) Attach(node wire.NodeID) (Transport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.port(node) != nil {
		return nil, fmt.Errorf("interconnect: node %d already attached", node)
	}
	p := &fabricPort{fabric: f, node: node, ch: make(chan []byte, f.depth)}
	old := *f.ports.Load()
	table := make([]*fabricPort, max(len(old), int(node)+1))
	copy(table, old)
	table[node] = p
	f.ports.Store(&table)
	return p, nil
}

type fabricPort struct {
	fabric    *Fabric
	node      wire.NodeID
	ch        chan []byte
	sent      atomic.Uint64
	delivered atomic.Uint64
	busy      atomic.Uint64
}

func (p *fabricPort) TrySend(dst wire.NodeID, frame []byte) bool {
	dp := p.fabric.port(dst)
	if dp == nil {
		return false
	}
	select {
	case dp.ch <- append([]byte(nil), frame...):
		p.sent.Add(1)
		return true
	default:
		p.busy.Add(1)
		return false
	}
}

func (p *fabricPort) Poll() ([]byte, bool) {
	select {
	case f := <-p.ch:
		p.delivered.Add(1)
		return f, true
	default:
		return nil, false
	}
}

func (p *fabricPort) LocalNode() wire.NodeID { return p.node }

// Stats returns a snapshot of the port's counters.
func (p *fabricPort) Stats() Stats {
	return Stats{Sent: p.sent.Load(), Delivered: p.delivered.Load(), SendBusy: p.busy.Load()}
}
