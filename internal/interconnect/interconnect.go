// Package interconnect defines the transport abstraction the messaging
// engine drives, plus two implementations:
//
//   - Mesh: a discrete-event model of the Paragon's 2D mesh
//     interconnect (wormhole-routed, 200 MB/s peak links of which the
//     best software achieves 160 MB/s, i.e. 6.25 ns/byte), used by the
//     virtual-time experiments, corking per-destination runs under
//     wire.Cork (MeshConfig.BatchFrames);
//   - Fabric: a real in-process transport used by the concurrency
//     tests, examples, and wall-clock benchmarks: one single-producer,
//     single-consumer ring of NewFabric's depth per source →
//     destination pair, so concurrent senders on one port (or pollers)
//     must be serialized, as Mux and faultinject.Injector do. It never
//     corks: a frame TrySend accepts is in the pair's ring. The frame
//     copies are cut from chunks of up to 1 KiB, one heap object per 8
//     of the 128-byte frames the benchmarks send.
//
// Both deliver fixed-size frames reliably and in order per source →
// destination pair, and only per pair: frames from different sources
// interleave. That is the transport guarantee FLIPC's optimistic
// protocol relies on (§Message Transfer): because receivers always
// accept from the interconnect (discarding when no buffer is posted),
// a reliable interconnect cannot deadlock. Mux shares any transport
// among several communication buffers on one node.
package interconnect

import (
	"fmt"
	"math/bits"
	"slices"
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
//     false. The returned slice is owned by the caller: the transport
//     never writes to it again, and its capacity ends with the frame.
//     It may share its backing array with neighbouring frames (the
//     socket reader's burst, the fabric's chunk: at most 1 KiB, or the
//     one frame when it is larger), and a retained frame keeps that
//     array alive. Poll has one caller at a time, the engine loop.
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

// BatchFlusher is an optional transport capability: TrySend may cork
// accepted frames into per-destination runs, and FlushSends transmits
// the runs that are due, one wire transaction each. wire.Cork states
// when a run is due. The engine type-asserts for it and calls
// FlushSends at the end of every send pass. Every accepted frame is
// eventually transmitted or counted lost, never silently stranded. Two
// transports cork: nettrans (Config.BatchWrites) on real sockets and
// Mesh (MeshConfig.BatchFrames) in virtual time, so sim scenarios
// exercise the policy the wire transport runs. Wrappers (Mux ports,
// faultinject.Injector) forward the call.
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
	// BatchFrames is the cork's run cap (wire.Cork.Frames). A run pays
	// RouteSetup once for all its frames — the aggregation win
	// `flipcsim -topics -batch` asserts. 0 (the default) is aggregation
	// off: RouteSetup per frame.
	BatchFrames int
	// FlushDeadline is the cork's deadline (wire.Cork.Deadline) in
	// virtual time.
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
	cork  wire.Cork
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
	return &Mesh{
		clock: clock,
		cfg:   cfg,
		cork:  wire.Cork{Frames: cfg.BatchFrames, Deadline: int64(cfg.FlushDeadline)},
		ports: make(map[wire.NodeID]*meshPort),
	}, nil
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
	p := &meshPort{mesh: m, node: node, pending: make(map[wire.NodeID]*meshRun)}
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

	// Per-destination corked runs (see wire.Cork).
	pending map[wire.NodeID]*meshRun
	order   []wire.NodeID // destinations in first-corked order
}

// meshRun is one destination's corked frames plus the age of the
// oldest.
type meshRun struct {
	frames [][]byte
	since  sim.Time
}

// TrySend implements Transport: it admits the frame to dst's run
// under the mesh's wire.Cork. The sending link serializes frames at
// NSPerByte, so back-to-back transmissions queue behind each other —
// this is what bounds throughput in the bandwidth experiments.
func (p *meshPort) TrySend(dst wire.NodeID, frame []byte) bool {
	dp := p.mesh.ports[dst]
	if dp == nil {
		return false // unreachable node: drop at source
	}
	run := p.pending[dst]
	if run == nil {
		run = &meshRun{}
		p.pending[dst] = run
		p.order = append(p.order, dst)
	}
	if p.mesh.cfg.PortDepth > 0 && len(dp.inbox)+len(run.frames) >= p.mesh.cfg.PortDepth {
		p.stats.SendBusy++
		return false
	}
	p.stats.Sent++
	act := p.mesh.cork.Admit(len(run.frames), frame[6])
	if act == wire.CorkAlone {
		p.flushRun(dst, run)
	}
	if len(run.frames) == 0 {
		run.since = p.mesh.clock.Now()
	}
	run.frames = append(run.frames, append([]byte(nil), frame...))
	if act != wire.CorkHold {
		p.flushRun(dst, run)
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
		serial += sim.Time(float64(len(f)) * p.mesh.cfg.NSPerByte)
		p.mesh.clock.At(base+serial, func() {
			dp.inbox = append(dp.inbox, f)
		})
	}
	p.txFree = start + serial
}

// flushRun transmits dst's corked run, if it holds any frame.
func (p *meshPort) flushRun(dst wire.NodeID, run *meshRun) {
	if len(run.frames) > 0 {
		p.transmit(dst, p.mesh.ports[dst], run.frames)
		run.frames = nil
	}
}

// FlushSends implements BatchFlusher: it transmits every corked run
// the mesh's wire.Cork says is due.
func (p *meshPort) FlushSends() {
	now := int64(p.mesh.clock.Now())
	for _, dst := range p.order {
		if run := p.pending[dst]; len(run.frames) > 0 && p.mesh.cork.Due(int64(run.since), now) {
			p.flushRun(dst, run)
		}
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

// Fabric is a real in-process transport: one ring per (source,
// destination) pair, each node's own pair included, delivering at once
// — wall-clock behaviour comes from the real Go scheduler and memory
// system. As between the paper's engine and its applications, the two
// ends of a ring synchronize only through single-writer loads and
// stores: no lock and no read-modify-write is on the frame path. So a
// port is single-producer and single-consumer: its TrySend calls must
// be serialized, and so must its Poll calls.
type Fabric struct {
	depth int
	mu    sync.Mutex    // serializes Attach
	ports []*fabricPort // under mu
}

// NewFabric creates a fabric whose rings hold up to depth frames each
// (default 256). Depth is per (source, destination) pair, so a node's
// inbound capacity grows with the nodes attached, and frames are
// ordered per pair only.
func NewFabric(depth int) *Fabric {
	if depth <= 0 {
		depth = 256
	}
	return &Fabric{depth: depth}
}

// Attach creates the port for a node and its rings to and from every
// node attached so far, and its own. They are published copy-on-write,
// so an Attach never stalls the engines already running.
func (f *Fabric) Attach(node wire.NodeID) (Transport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, q := range f.ports {
		if q.node == node {
			return nil, fmt.Errorf("interconnect: node %d already attached", node)
		}
	}
	p := &fabricPort{node: node}
	p.out.Store(new([]*ring))
	p.in.Store(new([]*ring))
	f.ports = append(f.ports, p)
	for _, q := range f.ports {
		f.link(q, p)
		if q != p {
			f.link(p, q)
		}
	}
	return p, nil
}

// link publishes a new ring from src to dst in src's outbound table
// and dst's inbound list.
func (f *Fabric) link(src, dst *fabricPort) {
	size := 1 << bits.Len(uint(f.depth-1))
	r := &ring{slots: make([][]byte, size), mask: uint64(size - 1), depth: uint64(f.depth)}
	out := make([]*ring, max(len(*src.out.Load()), int(dst.node)+1))
	copy(out, *src.out.Load())
	out[dst.node] = r
	src.out.Store(&out)
	in := append(slices.Clip(*dst.in.Load()), r)
	dst.in.Store(&in)
}

const cacheLine = 64

// ring is one pair's frames. The sender is the only writer of the
// slots and of tail, the receiver the only writer of head, and the two
// indexes are the pair's sent and delivered counts. Each side caches
// the other's index on its own line and reloads it only when the cache
// reads full (sender) or empty (receiver): an idle ring costs the
// receiver one tail load.
type ring struct {
	slots [][]byte // a power of two >= depth long; the header is read-only
	mask  uint64
	depth uint64
	_     [cacheLine - 40]byte

	tail      atomic.Uint64 // stored by the sender only
	headCache uint64
	chunk     []byte // the sender's unpublished rest of its current chunk
	_         [cacheLine - 40]byte

	head      atomic.Uint64 // stored by the receiver only
	tailCache uint64
	_         [cacheLine - 16]byte
}

// chunkBytes caps the frames one chunk holds, as nettrans caps a
// burst: at 128-byte frames a chunk is 8 of them, and every multiple of
// 128 up to it is a Go size class.
const chunkBytes = 1024

// push copies frame into the sender's current chunk and publishes that
// piece of it, capacity-clipped, in the next slot; a full ring refuses
// it without allocating. A new chunk holds as many frames as the ring
// has carried, up to chunkBytes of them: only traffic that is already
// flowing is batched, so a short-lived ring wastes little of its last.
func (r *ring) push(frame []byte) bool {
	t := r.tail.Load()
	if t-r.headCache >= r.depth {
		if r.headCache = r.head.Load(); t-r.headCache >= r.depth {
			return false
		}
	}
	n := len(frame)
	if len(r.chunk) < n {
		frames := min(t+1, uint64(max(1, chunkBytes/n)))
		r.chunk = make([]byte, n*int(frames))
	}
	f := r.chunk[:n:n]
	copy(f, frame)
	r.chunk = r.chunk[n:]
	r.slots[t&r.mask] = f
	r.tail.Store(t + 1)
	return true
}

// pop returns the oldest published frame. The sender never writes into
// a piece of a chunk it published, and a frame's capacity ends with it,
// so the caller owns the slice; a frame the caller keeps keeps its
// chunk (at most chunkBytes) alive.
func (r *ring) pop() ([]byte, bool) {
	h := r.head.Load()
	if h == r.tailCache {
		if r.tailCache = r.tail.Load(); h == r.tailCache {
			return nil, false
		}
	}
	f := r.slots[h&r.mask]
	r.head.Store(h + 1)
	return f, true
}

type fabricPort struct {
	node wire.NodeID
	out  atomic.Pointer[[]*ring] // by destination node; nil where none is attached
	in   atomic.Pointer[[]*ring] // in attach order
	next int                     // the inbound ring Poll tries first
	busy atomic.Uint64
}

func (p *fabricPort) TrySend(dst wire.NodeID, frame []byte) bool {
	out := *p.out.Load()
	if int(dst) >= len(out) || out[dst] == nil {
		return false
	}
	if !out[dst].push(frame) {
		p.busy.Add(1)
		return false
	}
	return true
}

// Poll tries the inbound rings round-robin, starting after the last one
// that had a frame, and returns the oldest frame of the first that has
// one.
func (p *fabricPort) Poll() ([]byte, bool) {
	in := *p.in.Load()
	for i, j := 0, p.next; i < len(in); i, j = i+1, j+1 {
		if j >= len(in) {
			j = 0
		}
		if f, ok := in[j].pop(); ok {
			p.next = j + 1
			return f, true
		}
	}
	return nil, false
}

func (p *fabricPort) LocalNode() wire.NodeID { return p.node }

// Stats returns a snapshot of the port's counters, read from its rings'
// indexes; it may be called from any goroutine.
func (p *fabricPort) Stats() Stats {
	s := Stats{SendBusy: p.busy.Load()}
	for _, r := range *p.out.Load() {
		if r != nil {
			s.Sent += r.tail.Load()
		}
	}
	for _, r := range *p.in.Load() {
		s.Delivered += r.head.Load()
	}
	return s
}
