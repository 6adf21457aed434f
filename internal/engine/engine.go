// Package engine implements FLIPC's messaging engine: the body of
// hardware and software that moves messages between nodes.
//
// On the Paragon the engine runs on the dedicated message coprocessor;
// here it is driven either by discrete-event ticks (virtual-time
// experiments) or by a host goroutine (real-concurrency mode). Either
// way it obeys the controller restrictions the paper designs around
// (§Communication Interface Architecture):
//
//   - it is a non-preemptible event loop: each Poll pass does a bounded
//     quantum of work and never blocks, so one application's backlog
//     cannot delay unrelated communication;
//   - it synchronizes with applications only through wait-free
//     loads/stores in the communication buffer — never read-modify-write,
//     never a lock — so an errant application cannot stall it;
//   - the inter-node protocol is optimistic: messages are sent
//     aggressively with no acknowledgment, and an arrival that finds no
//     posted receive buffer is discarded and counted on the endpoint's
//     wait-free drop counter. Because every node therefore always
//     drains the interconnect, a reliable interconnect cannot deadlock.
//
// Validity checks (Config.ValidityChecks) protect the engine against a
// corrupted or malicious communication buffer; the paper measures them
// at about +2 µs and allows trusted configurations to remove them.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/interconnect"
	"flipc/internal/mem"
	"flipc/internal/metrics"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

// SendPolicy selects how the engine scans send endpoints.
type SendPolicy uint8

// Send policies. PolicyPriority is the paper's future-work transport
// prioritization: higher-priority endpoints are drained first each pass.
const (
	PolicyRoundRobin SendPolicy = iota
	PolicyPriority
)

// Config tunes one engine instance.
type Config struct {
	// ValidityChecks enables the defensive checks on everything the
	// engine reads from the communication buffer.
	ValidityChecks bool
	// SendQuantum bounds send-side work per Poll pass (messages).
	// Zero selects the default (8).
	SendQuantum int
	// RecvQuantum bounds receive-side work per Poll pass (frames).
	// Zero selects the default (8).
	RecvQuantum int
	// Policy selects the send-endpoint scan order.
	Policy SendPolicy
	// ReservedQuantum, when positive, reserves that much of SendQuantum
	// for endpoints at priority >= ReservePriority: endpoints below the
	// threshold may together consume at most SendQuantum-ReservedQuantum
	// per pass. With the topic subsystem's class priorities this is what
	// keeps a saturating bulk topic from eating the whole send quantum —
	// control-class sends never wait behind more than the unreserved
	// share in any pass. Clamped to SendQuantum.
	ReservedQuantum int
	// ReservePriority is the priority threshold for ReservedQuantum
	// (endpoints at or above it are "high class"). Zero with a positive
	// ReservedQuantum reserves for every endpoint above priority 0.
	ReservePriority uint8
	// Trace, when non-nil, records engine events (sends, deliveries,
	// drops, refusals) for post-mortem inspection. Events use the
	// ring's typed fast path — allocation-free, a few atomic stores per
	// event — so tracing may stay enabled on the message path.
	Trace *trace.Ring
	// Metrics, when non-nil, publishes the engine's counters and
	// latency instruments into the registry: per-pass duration and
	// quantum utilization, queue-depth samples, and per-endpoint
	// one-way delivery latency. Sends are then stamped, so receivers
	// that also run with Metrics measure true one-way latency. The
	// "quarantined" health source lists quarantined endpoints and is
	// healthy while there are none. All instrument updates are
	// single-writer plain stores.
	Metrics *metrics.Registry
	// Checksum puts a CRC32C trailer on every outgoing frame (when the
	// payload leaves trailer room — see wire.ChecksumBytes). Receivers
	// verify flag-gated, per frame, so checksumming and plain senders
	// interoperate; failures are counted as Stats.ChecksumDrops on the
	// receive side.
	Checksum bool
}

func (c *Config) applyDefaults() {
	if c.SendQuantum == 0 {
		c.SendQuantum = 8
	}
	if c.RecvQuantum == 0 {
		c.RecvQuantum = 8
	}
	if c.ReservedQuantum < 0 {
		c.ReservedQuantum = 0
	}
	if c.ReservedQuantum > c.SendQuantum {
		c.ReservedQuantum = c.SendQuantum
	}
	if c.ReservedQuantum > 0 && c.ReservePriority == 0 {
		c.ReservePriority = 1
	}
}

// Stats counts engine activity. Read via Engine.Stats; written only by
// the engine's own loop.
type Stats struct {
	Sent          uint64 // messages transmitted
	Received      uint64 // frames taken from the transport
	Delivered     uint64 // messages placed into posted receive buffers
	RecvDrops     uint64 // arrivals discarded: no posted buffer
	CtlRecvDrops  uint64 // subset of RecvDrops carrying wire.FlagCtl (in-band control)
	AddrDrops     uint64 // arrivals discarded: bad/stale destination
	SendRefused   uint64 // queued sends refused by validity checks (policy, per message)
	WireBusy      uint64 // TrySend rejections, peer up (left queued, retried)
	PeerDown      uint64 // TrySend rejections, peer down (left queued until it recovers)
	BadFrames     uint64 // undecodable frames from the transport
	ChecksumDrops uint64 // arrivals discarded: frame failed CRC32C verification
	Doorbells     uint64 // wakeups posted to the kernel ring
	Polls         uint64 // Poll passes executed

	// Fault containment. QuarantineDrops counts arrivals discarded
	// because the destination endpoint is (or just became) quarantined;
	// EndpointFaults counts quarantine episodes by category (index by
	// FaultKind; index 0, FaultNone, stays zero); Quarantines and
	// QuarantineRecoveries count episodes entered and lifted.
	QuarantineDrops      uint64
	EndpointFaults       [NumFaultKinds]uint64
	Quarantines          uint64
	QuarantineRecoveries uint64
}

// Engine is one node's messaging engine instance.
type Engine struct {
	buf     *commbuf.Buffer
	tr      interconnect.Transport
	health  interconnect.PeerStatusReporter // nil when tr doesn't track peers
	flusher interconnect.BatchFlusher       // nil when tr doesn't batch writes
	view    mem.View
	cfg     Config

	eps        []epCache
	sweep      []sweepSlot  // every descriptor slot's config word, dense for the per-pass sweep
	active     []activeSend // healthy send endpoints in scan order, rebuilt in place on orderStale
	orderStale bool
	scan       int // round-robin cursor, a slot index
	scanPos    int // first position in active at or after slot scan, as far as already searched
	frame      []byte
	sendSeqs   []uint8
	stats      Stats
	run        recvRun // open only inside pollReceive

	// ctlDrops tracks, per endpoint slot, the share of no-buffer
	// discards (RecvDrops) that carried wire.FlagCtl — in-band control
	// frames like topic credit/hello. The per-endpoint Drops counter in
	// the communication buffer lumps both together; this side table
	// lets the topic layer report application losses separately. Each
	// word packs generation<<48 | count so a recycled slot restarts at
	// zero without a sweep. Engine loop is the single writer.
	ctlDrops []atomic.Uint64

	lab *traceLabels // typed trace labels, nil when Trace is nil
	m   *engMetrics  // registry instruments, nil when Metrics is nil

	// qsnap is the cross-goroutine quarantine snapshot: the engine loop
	// stores an immutable slice on every quarantine/recovery; any
	// goroutine may load it through Quarantined().
	qsnap atomic.Pointer[[]QuarantinedEndpoint]

	sendWaiters atomic.Int32 // see WatchSends
}

// WatchSends adds delta to the count of threads blocked for a completed
// send. Only while it is non-zero does a pass read a send endpoint's
// wakeup flag, so without one the pass makes exactly the paper's accesses.
func (e *Engine) WatchSends(delta int) { e.sendWaiters.Add(int32(delta)) }

// traceLabels are the engine's pre-interned fast-path trace labels.
type traceLabels struct {
	recvBadframe     trace.Label
	recvChecksum     trace.Label
	recvWrongnode    trace.Label
	recvForeignrange trace.Label
	recvBadendpoint  trace.Label
	recvNobuffer     trace.Label
	recvQuarantined  trace.Label
	recvDelivered    trace.Label
	sendPeerdown     trace.Label
	sendOK           trace.Label
	epQuarantine     trace.Label
	epRecover        trace.Label
}

func newTraceLabels(r *trace.Ring) *traceLabels {
	return &traceLabels{
		recvBadframe:     r.Label("recv.badframe"),
		recvChecksum:     r.Label("recv.checksum"),
		recvWrongnode:    r.Label("recv.wrongnode"),
		recvForeignrange: r.Label("recv.foreignrange"),
		recvBadendpoint:  r.Label("recv.badendpoint"),
		recvNobuffer:     r.Label("recv.nobuffer"),
		recvQuarantined:  r.Label("recv.quarantined"),
		recvDelivered:    r.Label("recv.delivered"),
		sendPeerdown:     r.Label("send.peerdown"),
		sendOK:           r.Label("send.ok"),
		epQuarantine:     r.Label("ep.quarantine"),
		epRecover:        r.Label("ep.recover"),
	}
}

// engMetrics holds the engine's registry instruments. The engine's
// driving goroutine is the single writer of every one of them.
type engMetrics struct {
	reg *metrics.Registry

	sent, received, delivered       *metrics.Counter
	recvDrops, addrDrops, badFrames *metrics.Counter
	sendRefused, wireBusy, peerDown *metrics.Counter
	checksumDrops, quarDrops        *metrics.Counter
	quarantines, quarRecoveries     *metrics.Counter
	doorbells, polls                *metrics.Counter
	epFaults                        [NumFaultKinds]*metrics.Counter // by FaultKind, index 0 unused
	quarantined                     *metrics.Gauge                  // endpoints currently quarantined
	pollDur                         *metrics.Histogram              // ns per pass that did work
	sendQDepth, recvQDepth          *metrics.Histogram
	util                            *metrics.Gauge       // moved/(send+recv quantum), last working pass
	latency                         *metrics.Histogram   // one-way delivery ns, all endpoints
	epLatency                       []*metrics.Histogram // per endpoint slot, lazy
	mirrored                        Stats                // what the counters last received
}

func newEngMetrics(reg *metrics.Registry, maxEndpoints int) *engMetrics {
	m := &engMetrics{
		reg:            reg,
		sent:           reg.Counter("flipc_engine_sent_total"),
		received:       reg.Counter("flipc_engine_received_total"),
		delivered:      reg.Counter("flipc_engine_delivered_total"),
		recvDrops:      reg.Counter("flipc_engine_recv_drops_total"),
		addrDrops:      reg.Counter("flipc_engine_addr_drops_total"),
		badFrames:      reg.Counter("flipc_engine_bad_frames_total"),
		sendRefused:    reg.Counter("flipc_engine_send_refused_total"),
		wireBusy:       reg.Counter("flipc_engine_wire_busy_total"),
		peerDown:       reg.Counter("flipc_engine_peer_down_total"),
		checksumDrops:  reg.Counter("flipc_engine_checksum_drops_total"),
		quarDrops:      reg.Counter("flipc_engine_quarantine_drops_total"),
		quarantines:    reg.Counter("flipc_engine_quarantines_total"),
		quarRecoveries: reg.Counter("flipc_engine_quarantine_recoveries_total"),
		doorbells:      reg.Counter("flipc_engine_doorbells_total"),
		polls:          reg.Counter("flipc_engine_polls_total"),
		quarantined:    reg.Gauge("flipc_engine_quarantined"),
		pollDur:        reg.Histogram("flipc_engine_poll_ns"),
		sendQDepth:     reg.Histogram("flipc_engine_send_queue_depth"),
		recvQDepth:     reg.Histogram("flipc_engine_recv_queue_depth"),
		util:           reg.Gauge("flipc_engine_quantum_utilization"),
		latency:        reg.Histogram("flipc_recv_latency_ns"),
		epLatency:      make([]*metrics.Histogram, maxEndpoints),
	}
	for k := 1; k < NumFaultKinds; k++ {
		m.epFaults[k] = reg.Counter(metrics.Name(
			"flipc_engine_endpoint_faults_total", "kind", FaultKind(k).String()))
	}
	return m
}

// epLatencyHist returns the per-endpoint latency histogram for a slot,
// creating it in the registry on first delivery to that endpoint.
func (m *engMetrics) epLatencyHist(slot int) *metrics.Histogram {
	h := m.epLatency[slot]
	if h == nil {
		h = m.reg.Histogram(metrics.Name("flipc_recv_latency_ns", "endpoint", strconv.Itoa(slot)))
		m.epLatency[slot] = h
	}
	return h
}

// mirror copies the loop-local Stats into the registry counters so
// scrapers on other goroutines read consistent values. Called once per
// Poll pass: the pass count is stored every time, the other counters
// (nineteen atomic stores) only when one of them moved.
func (m *engMetrics) mirror(s *Stats) {
	m.polls.Set(s.Polls)
	m.mirrored.Polls = s.Polls
	if *s == m.mirrored {
		return
	}
	m.mirrored = *s
	m.sent.Set(s.Sent)
	m.received.Set(s.Received)
	m.delivered.Set(s.Delivered)
	m.recvDrops.Set(s.RecvDrops)
	m.addrDrops.Set(s.AddrDrops)
	m.badFrames.Set(s.BadFrames)
	m.sendRefused.Set(s.SendRefused)
	m.wireBusy.Set(s.WireBusy)
	m.peerDown.Set(s.PeerDown)
	m.checksumDrops.Set(s.ChecksumDrops)
	m.quarDrops.Set(s.QuarantineDrops)
	m.quarantines.Set(s.Quarantines)
	m.quarRecoveries.Set(s.QuarantineRecoveries)
	m.doorbells.Set(s.Doorbells)
	for k := 1; k < NumFaultKinds; k++ {
		m.epFaults[k].Set(s.EndpointFaults[k])
	}
}

// sweepSlot is where one descriptor slot's config word is and the word
// the slot's cache was built from: 16 bytes a slot, apart from the
// cached descriptor, so the change-detection sweep reads a dense array.
type sweepSlot struct {
	off  int
	word uint64
}

// epCache is what the engine knows about one descriptor slot: the
// descriptor value itself, so opening an endpoint allocates nothing. The
// zero value is the cache of a never-allocated slot (config word 0, an
// EndpointInvalid descriptor).
type epCache struct {
	ep        commbuf.Endpoint // zero unless the slot held a sane active descriptor
	fault     FaultKind        // != FaultNone while the slot is quarantined
	faultPass uint64           // Polls value when the fault was detected
}

// activeSend is one entry of the send scan: a healthy send endpoint (in
// its slot's cache, which never moves) and the two queue words whose
// equality means it has nothing queued.
type activeSend struct {
	ep               *commbuf.Endpoint
	process, release int  // word offsets
	low              bool // subject to the unreserved share of the quantum
}

// New creates an engine for a communication buffer bound to a transport.
func New(buf *commbuf.Buffer, tr interconnect.Transport, cfg Config) (*Engine, error) {
	if buf == nil || tr == nil {
		return nil, fmt.Errorf("engine: nil communication buffer or transport")
	}
	if tr.LocalNode() != buf.Node() {
		return nil, fmt.Errorf("engine: transport node %d != buffer node %d", tr.LocalNode(), buf.Node())
	}
	cfg.applyDefaults()
	e := &Engine{
		buf:        buf,
		tr:         tr,
		view:       buf.View(mem.ActorEngine),
		cfg:        cfg,
		eps:        make([]epCache, buf.Config().MaxEndpoints),
		sweep:      make([]sweepSlot, buf.Config().MaxEndpoints),
		active:     make([]activeSend, 0, buf.Config().MaxEndpoints),
		orderStale: true,
		frame:      make([]byte, buf.Config().MessageSize),
		sendSeqs:   make([]uint8, buf.Config().MaxEndpoints),
		ctlDrops:   make([]atomic.Uint64, buf.Config().MaxEndpoints),
	}
	for i := range e.sweep {
		e.sweep[i].off, _ = buf.EndpointCfgOffset(i)
	}
	if h, ok := tr.(interconnect.PeerStatusReporter); ok {
		e.health = h
	}
	if f, ok := tr.(interconnect.BatchFlusher); ok {
		e.flusher = f
	}
	if cfg.Trace != nil {
		e.lab = newTraceLabels(cfg.Trace)
	}
	if cfg.Metrics != nil {
		e.m = newEngMetrics(cfg.Metrics, buf.Config().MaxEndpoints)
		cfg.Metrics.Status("quarantined", func() (any, bool) {
			qs := e.Quarantined()
			return qs, len(qs) == 0
		})
	}
	return e, nil
}

// Stats returns a snapshot of the engine's counters. Only safe to call
// from the engine's own driving context (tick or host loop) — the
// counters are loop-local by design.
func (e *Engine) Stats() Stats { return e.stats }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// noteCtlDrop records a no-buffer discard of a control-plane frame
// against slot. The word packs gen<<48 | count; when the stored
// generation differs (slot recycled since the last ctl drop) the count
// restarts at one. Single writer (the engine loop), so load+store is
// race-free; readers see a torn-free whole word.
func (e *Engine) noteCtlDrop(slot int, gen uint16) {
	w := e.ctlDrops[slot].Load()
	if uint16(w>>48) != gen {
		w = uint64(gen) << 48
	}
	e.ctlDrops[slot].Store(w + 1)
}

// EndpointCtlDrops returns how many control-plane frames (wire.FlagCtl
// set — topic credit, hello, and similar in-band signalling) were
// discarded at the endpoint with address index addrIndex for lack of a
// posted receive buffer, for endpoint generation gen. Returns zero when
// the slot has only recorded drops for a different generation, so a
// recycled endpoint never inherits a predecessor's count. Unlike the
// shared-memory Drops counter this is not read-and-reset: it grows
// monotonically over the endpoint's lifetime. Safe to call from any
// goroutine.
func (e *Engine) EndpointCtlDrops(addrIndex int, gen uint16) uint64 {
	slot, ok := e.buf.SlotForAddrIndex(addrIndex)
	if !ok || slot < 0 || slot >= len(e.ctlDrops) {
		return 0
	}
	w := e.ctlDrops[slot].Load()
	if uint16(w>>48) != gen {
		return 0
	}
	return w & (1<<48 - 1)
}

// endpoint returns the engine's cached descriptor for slot i, rebuilding
// it when the shared descriptor changed (allocation, free, generation
// bump). Change detection is one config-word load and a compare; only a
// changed word pays for refresh.
func (e *Engine) endpoint(i int) *commbuf.Endpoint {
	if w := e.view.Load(e.sweep[i].off); w != e.sweep[i].word {
		e.refresh(i, w)
	}
	return &e.eps[i].ep
}

// refresh rebuilds slot i's cache after its config word changed to w,
// and invalidates the send scan order.
//
// A config-word change is also the quarantine exit: the fault that
// froze the slot described the old descriptor, so a re-allocation
// (generation bump) or free lifts the quarantine and the slot is
// serviced fresh. While the word is unchanged a quarantined slot stays
// frozen.
func (e *Engine) refresh(i int, w uint64) {
	if e.run.ep == &e.eps[i].ep {
		e.closeRun() // into the descriptor the run was filling
	}
	recovered := e.eps[i].fault != FaultNone
	ep, err := e.buf.OpenEndpoint(e.view, i)
	e.sweep[i].word = w
	e.eps[i] = epCache{ep: ep}
	e.orderStale = true
	if recovered {
		e.stats.QuarantineRecoveries++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.epRecover, uint64(i))
		}
		e.publishQuarantined()
	}
	if err != nil {
		// Active state bit with a corrupt descriptor body: a forged
		// config word. Quarantine the slot; its traffic is counted, not
		// trusted.
		e.quarantine(i, FaultBadDescriptor)
	}
}

// Poll runs one pass of the engine's event loop: first drain incoming
// frames (bounded by RecvQuantum), then service send endpoints (bounded
// by SendQuantum). It never blocks and returns whether any work was done.
//
// With Metrics configured the pass is measured: working passes record
// their duration and quantum utilization; every pass mirrors the
// loop-local counters that moved into the registry so scrapers see live
// values.
func (e *Engine) Poll() bool {
	e.stats.Polls++
	if e.m == nil {
		work := e.pollReceive()
		if e.pollSend() {
			work = true
		}
		return work
	}
	start := time.Now()
	moved0 := e.stats.Received + e.stats.Sent
	work := e.pollReceive()
	if e.pollSend() {
		work = true
	}
	if work {
		e.m.pollDur.Observe(uint64(time.Since(start)))
		moved := e.stats.Received + e.stats.Sent - moved0
		e.m.util.Set(float64(moved) / float64(e.cfg.RecvQuantum+e.cfg.SendQuantum))
	}
	e.m.mirror(&e.stats)
	return work
}

func (e *Engine) pollReceive() bool {
	work := false
	for n := 0; n < e.cfg.RecvQuantum; n++ {
		frame, ok := e.tr.Poll()
		if !ok {
			break
		}
		work = true
		e.stats.Received++
		e.deliver(frame)
	}
	e.closeRun()
	return work
}

// recvRun is the receive half's open run: the endpoint the last frames
// went to, its queue words, and its pointers as the run last loaded
// them. The engine owns every buffer in [start, proc) from that release
// load on, so process is stored once, when the run closes: at a change
// of destination, at the end of the pass, before a quarantine and
// before a refresh of its slot (DESIGN.md §3b).
type recvRun struct {
	ep               *commbuf.Endpoint // nil while no run is open
	process, release int               // word offsets
	start, proc, rel uint64
}

// closeRun hands the open run's filled buffers to the application with
// one store of process and, once for the run, rings the endpoint's
// doorbell if a thread waits on it.
func (e *Engine) closeRun() {
	r := &e.run
	if r.ep != nil && r.proc != r.start {
		e.view.Store(r.process, r.proc)
		if e.m != nil {
			// Posted buffers the run left for the next arrivals.
			e.m.recvQDepth.Observe(r.rel - r.proc)
		}
		if r.ep.WakeupRequested(e.view) {
			e.ring(r.ep)
		}
	}
	r.ep = nil
}

// recvFault freezes a receive endpoint whose queue or posted buffer is
// corrupt, after handing over what its run already filled, and counts
// the frame that found it so.
func (e *Engine) recvFault(slot int, k FaultKind, dst wire.Addr) {
	e.closeRun()
	e.quarantine(slot, k)
	e.stats.QuarantineDrops++
	if e.lab != nil {
		e.cfg.Trace.Add1(e.lab.recvQuarantined, uint64(dst))
	}
}

// deliver places one arrived frame into its destination endpoint's run,
// or discards it with accounting. This is the receiving half of the
// optimistic protocol: there is never feedback to the sender.
func (e *Engine) deliver(frame []byte) {
	var pkt wire.Packet
	if err := wire.DecodeInto(frame, &pkt); err != nil {
		if errors.Is(err, wire.ErrChecksum) {
			// The frame carried a CRC32C trailer and failed it: a
			// distinct loss category, because nothing in the header can
			// be trusted (not even the destination for per-endpoint
			// accounting).
			e.stats.ChecksumDrops++
			if e.lab != nil {
				e.cfg.Trace.Add0(e.lab.recvChecksum)
			}
			return
		}
		e.stats.BadFrames++
		if e.lab != nil {
			e.cfg.Trace.Add0(e.lab.recvBadframe)
		}
		return
	}
	dst := pkt.Dst
	if dst.Node() != e.tr.LocalNode() {
		e.stats.AddrDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvWrongnode, uint64(dst))
		}
		return
	}
	slot, ok := e.buf.SlotForAddrIndex(int(dst.Index()))
	if !ok {
		// Another communication buffer's endpoint range (multi-buffer
		// nodes demultiplex with interconnect.Mux, so this engine should
		// never see such frames; count and drop if it does).
		e.stats.AddrDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvForeignrange, uint64(dst))
		}
		return
	}
	ep := e.endpoint(slot)
	if e.eps[slot].fault != FaultNone {
		// Quarantined destination (possibly quarantined just now by the
		// descriptor check in endpoint). The fault episode was counted
		// when detected; each arriving frame is its own loss category.
		e.stats.QuarantineDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvQuarantined, uint64(dst))
		}
		return
	}
	if ep.Type() != commbuf.EndpointRecv || ep.Gen() != dst.Gen() {
		// Unallocated, wrong-type, or stale-generation destination.
		e.stats.AddrDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvBadendpoint, uint64(dst))
		}
		return
	}
	// Open a run on a new destination; within a run, reload release
	// only when the buffers it loaded are spent. The queue invariant is
	// checked on the two words those loads give anyway: the backlog
	// release-process lies in [0, capacity] on a sane queue. acquire is
	// not checked: it is the application's word, and loading it would
	// pull the application's line over to the engine on every frame.
	r := &e.run
	if r.ep != ep {
		e.closeRun()
		process, release := ep.Queue().ProcessWords()
		proc := e.view.Load(process)
		*r = recvRun{ep: ep, process: process, release: release, start: proc, proc: proc, rel: e.view.Load(release)}
	} else if r.proc == r.rel {
		r.rel = e.view.Load(r.release)
	}
	wild := r.rel-r.proc > uint64(ep.Queue().Capacity())
	if wild && e.cfg.ValidityChecks {
		// Wild queue pointers: nothing read from this queue can be
		// trusted. Freeze the endpoint.
		e.recvFault(slot, FaultQueueInvariant, dst)
		return
	}
	if r.proc == r.rel {
		// No posted receive buffer: discard and count. The application
		// reads this counter via flipc's read-and-reset interface; flow
		// control is its job (or internal/flowctl's), not the transport's.
		ep.Drops().Incr(e.view)
		e.stats.RecvDrops++
		if pkt.Flags&wire.FlagCtl != 0 {
			e.stats.CtlRecvDrops++
			e.noteCtlDrop(slot, ep.Gen())
		}
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvNobuffer, uint64(dst))
		}
		return
	}
	// A corrupt slot — an id out of range, or with checks a buffer not
	// queued — is refused before any memory is touched, and the queue is
	// not advanced past it (a frozen queue cannot mislead the engine
	// again; re-allocation is the recovery path).
	msg, err := e.buf.MsgByID(ep.Queue().Slot(e.view, r.proc))
	if err != nil {
		e.recvFault(slot, FaultBadBufID, dst)
		return
	}
	if e.cfg.ValidityChecks {
		if _, _, _, state := msg.EngineMeta(e.view); state != commbuf.StateQueued {
			e.recvFault(slot, FaultBadBufState, dst)
			return
		}
	}
	copy(msg.Payload(), pkt.Payload)
	msg.EngineFillRecv(e.view, int(pkt.Size), pkt.Flags)
	if wild {
		// Unchecked, the head of a scribbled backlog is filled but not
		// handed over; the frame counts as quarantine loss.
		e.recvFault(slot, FaultQueueInvariant, dst)
		return
	}
	r.proc++
	e.stats.Delivered++
	if e.lab != nil {
		e.cfg.Trace.Add2(e.lab.recvDelivered, uint64(dst), uint64(pkt.Size))
	}
	if e.m != nil && pkt.Stamp != 0 {
		// True one-way delivery latency: sender stamped the frame at
		// transmit, we are past the copy into the posted buffer.
		lat := time.Now().UnixNano() - pkt.Stamp
		if lat < 0 {
			lat = 0 // cross-host clock skew: clamp, never corrupt
		}
		e.m.latency.Observe(uint64(lat))
		e.m.epLatencyHist(slot).Observe(uint64(lat))
	}
}

// ring posts an endpoint whose wakeup flag is armed on the kernel
// doorbell: after a delivery, or once after a pass's completed sends.
func (e *Engine) ring(ep *commbuf.Endpoint) {
	if e.buf.Doorbell().Push(e.view, uint64(ep.Index())) {
		e.stats.Doorbells++
	}
	// A full doorbell is harmless: the waiter also polls.
}

// rebuildActive lists the healthy send endpoints in scan order: by slot
// for round-robin (which rotates its start through the list), by
// descending priority, slot order within a class, for PolicyPriority.
// The list lives in the array New made for every slot: no allocation.
func (e *Engine) rebuildActive() {
	e.active = e.active[:0]
	for i := range e.eps {
		c := &e.eps[i]
		if c.ep.Type() != commbuf.EndpointSend || c.fault != FaultNone {
			continue
		}
		process, release := c.ep.Queue().ProcessWords()
		e.active = append(e.active, activeSend{
			ep: &c.ep, process: process, release: release,
			low: e.cfg.ReservedQuantum > 0 && c.ep.Priority() < e.cfg.ReservePriority,
		})
	}
	if e.cfg.Policy == PolicyPriority {
		slices.SortStableFunc(e.active, func(a, b activeSend) int {
			return cmp.Compare(b.ep.Priority(), a.ep.Priority())
		})
	}
	e.scanPos = 0
	e.orderStale = false
}

// rotation returns where in active this round-robin pass starts — the
// first send endpoint at or after the slot cursor, wrapping — and moves
// the cursor on one slot (slots, not list positions: the same turns as a
// walk over every slot).
func (e *Engine) rotation() int {
	for e.scanPos < len(e.active) && e.active[e.scanPos].ep.Index() < e.scan {
		e.scanPos++
	}
	first := e.scanPos
	if first == len(e.active) {
		first = 0
	}
	if e.scan++; e.scan == len(e.eps) {
		e.scan, e.scanPos = 0, 0
	}
	return first
}

// pollSend is the sending half of a pass. Its fixed cost is one load
// per descriptor slot plus two per active send endpoint, and no store;
// a send run adds one slot load per message to transmit's accesses and
// one process store per run (DESIGN.md §3b).
func (e *Engine) pollSend() bool {
	// Change detection over every slot: an allocation, free, generation
	// bump or forged config word takes effect in the pass that reads it.
	for i := range e.sweep {
		if w := e.view.Load(e.sweep[i].off); w != e.sweep[i].word {
			e.refresh(i, w)
		}
	}
	if e.orderStale {
		e.rebuildActive()
	}
	first := 0
	if e.cfg.Policy == PolicyRoundRobin {
		first = e.rotation()
	}

	work := false
	budget := e.cfg.SendQuantum
	// Class reservation: endpoints below ReservePriority may together
	// spend at most lowLimit of the quantum this pass, so bulk-class
	// fanout cannot starve control-class sends of engine bandwidth.
	lowLimit := e.cfg.SendQuantum - e.cfg.ReservedQuantum
	lowSpent := 0
	n := len(e.active)
	for k := 0; k < n && budget > 0; k++ {
		pos := first + k
		if pos >= n {
			pos -= n
		}
		a := &e.active[pos]
		proc, rel := e.view.Load(a.process), e.view.Load(a.release)
		if proc == rel {
			continue // nothing queued
		}
		if a.low && lowSpent >= lowLimit {
			continue // unreserved share exhausted this pass
		}
		ep := a.ep
		q := ep.Queue()
		// A backlog above capacity means a scribbled release pointer.
		// Checked, nothing is read through it; unchecked, the head goes
		// out and the run stops there without moving process.
		wild := rel-proc > uint64(q.Capacity())
		if e.m != nil && !wild {
			// Backlog sample: how deep the send queue stood when the
			// engine reached this endpoint.
			e.m.sendQDepth.Observe(rel - proc)
		}
		if wild && e.cfg.ValidityChecks {
			// No quantum is consumed: a faulty endpoint cannot starve its
			// neighbors in this pass.
			e.quarantine(ep.Index(), FaultQueueInvariant)
			work = true
			continue
		}
		// The run: the buffers released before the release load, in
		// order, up to the budget. The engine owns them all from that
		// load, so process is stored once, when the run ends, and that
		// store hands every completed buffer back.
		before, start := budget, proc
		for ; proc != rel && budget > 0 && !(a.low && lowSpent >= lowLimit); proc++ {
			verdict, kind := e.transmit(ep, q.Slot(e.view, proc))
			if verdict == txFault {
				// Corrupt buffer id or state: the queue cannot be advanced
				// past it safely (the slot is untrusted), so freeze the
				// endpoint. No quantum consumed.
				e.quarantine(ep.Index(), kind)
				work = true
				break
			}
			if verdict == txBusy {
				break // wire busy/peer down: preserve order, retry next pass
			}
			work = true
			if wild {
				e.quarantine(ep.Index(), FaultQueueInvariant)
				break
			}
			budget--
			if a.low {
				lowSpent++
			}
		}
		if proc != start {
			e.view.Store(a.process, proc)
		}
		if budget != before && e.sendWaiters.Load() != 0 && ep.WakeupRequested(e.view) {
			e.ring(ep) // completed sends: wake a thread waiting for a buffer
		}
	}
	if e.flusher != nil {
		// End-of-pass flush: one write per peer for everything this pass
		// corked, and — because a batching transport may hold frames
		// across passes until its flush deadline — the deadline
		// enforcement point for frames corked on earlier passes. Called
		// even when this pass sent nothing, or a quiet engine would
		// strand a corked frame forever (see interconnect.BatchFlusher).
		e.flusher.FlushSends()
	}
	return work
}

// txVerdict is transmit's outcome for one queued send buffer.
type txVerdict uint8

const (
	// txSent: on the wire; advance the queue, consume budget.
	txSent txVerdict = iota
	// txRefused: policy refusal (bad destination, oversize, node not
	// allowed, unencodable) — dropped with per-message accounting;
	// advance the queue, consume budget, endpoint stays healthy.
	txRefused
	// txBusy: transport backpressure or peer down; leave queued, retry
	// next pass.
	txBusy
	// txFault: the queue slot or buffer meta is corrupt — the endpoint
	// must be quarantined (see the FaultKind returned alongside).
	txFault
)

// transmit attempts to put one queued send buffer on the wire. A
// txFault verdict carries the fault category; every other verdict
// returns FaultNone.
//
// The corruption checks (buffer id in range, buffer actually queued)
// run unconditionally: they are what keeps the engine's no-panic,
// no-wild-memory guarantee, and they cost two loads. ValidityChecks
// gates only the policy checks the paper prices at +2 µs.
func (e *Engine) transmit(ep *commbuf.Endpoint, id uint64) (txVerdict, FaultKind) {
	msg, err := e.buf.MsgByID(id)
	if err != nil {
		return txFault, FaultBadBufID
	}
	dst, size, flags, state := msg.EngineMeta(e.view)
	if e.cfg.ValidityChecks {
		if state != commbuf.StateQueued {
			// The application kept ownership of a buffer it queued (or
			// queued one it never owned): state corruption, not policy.
			return txFault, FaultBadBufState
		}
		if !dst.Valid() ||
			size < 0 || size > e.buf.MaxPayload() ||
			!e.buf.NodeAllowed(e.view, dst.Node()) {
			// Policy refusal: this message is dropped and counted, but the
			// endpoint is healthy and later messages flow.
			msg.EngineDropSend(e.view)
			ep.Drops().Incr(e.view)
			e.stats.SendRefused++
			return txRefused, FaultNone
		}
	}
	e.sendSeqs[ep.Index()]++
	pkt := wire.Packet{
		Dst:      dst,
		Size:     uint16(size),
		Flags:    flags,
		Seq:      e.sendSeqs[ep.Index()],
		Payload:  msg.Payload()[:size],
		Checksum: e.cfg.Checksum,
	}
	if e.m != nil { // stamped, so receivers measure one-way latency
		pkt.Stamp = time.Now().UnixNano()
	}
	if err := wire.Encode(&pkt, e.frame); err != nil {
		// Unencodable without checks enabled (e.g. invalid dst): treat
		// as a refused send rather than wedging the queue.
		e.sendSeqs[ep.Index()]--
		msg.EngineDropSend(e.view)
		ep.Drops().Incr(e.view)
		e.stats.SendRefused++
		return txRefused, FaultNone
	}
	if !e.tr.TrySend(dst.Node(), e.frame) {
		e.sendSeqs[ep.Index()]-- // not sent; reuse the sequence number
		if e.health != nil && !e.health.PeerUp(dst.Node()) {
			// Peer gone, not backpressure: the message stays queued and
			// drains when the transport re-establishes the link.
			e.stats.PeerDown++
			if e.lab != nil {
				e.cfg.Trace.Add1(e.lab.sendPeerdown, uint64(dst))
			}
		} else {
			e.stats.WireBusy++
		}
		return txBusy, FaultNone
	}
	msg.EngineCompleteSend(e.view)
	e.stats.Sent++
	if e.lab != nil {
		e.cfg.Trace.Add2(e.lab.sendOK, uint64(dst), uint64(size))
	}
	return txSent, FaultNone
}
