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
	"errors"
	"fmt"
	"sort"
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
	// one-way delivery latency (sends are then stamped, see Stamp).
	// All instrument updates are single-writer plain stores.
	Metrics *metrics.Registry
	// Stamp forces a send timestamp onto every outgoing frame even
	// without Metrics, so *receivers* can measure one-way latency.
	// Stamping is implied when Metrics is set.
	Stamp bool
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

// Faults returns the total quarantine episodes across all categories.
func (s *Stats) Faults() uint64 {
	var n uint64
	for _, v := range s.EndpointFaults {
		n += v
	}
	return n
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
	cfgOffs    []int        // config-word offset of every descriptor slot
	active     []activeSend // healthy send endpoints in scan order, rebuilt on orderStale
	orderStale bool
	scan       int // round-robin cursor, a slot index
	scanPos    int // first position in active at or after slot scan, as far as already searched
	frame      []byte
	sendSeqs   []uint8
	stats      Stats

	// ctlDrops tracks, per endpoint slot, the share of no-buffer
	// discards (RecvDrops) that carried wire.FlagCtl — in-band control
	// frames like topic credit/hello. The per-endpoint Drops counter in
	// the communication buffer lumps both together; this side table
	// lets the topic layer report application losses separately. Each
	// word packs generation<<48 | count so a recycled slot restarts at
	// zero without a sweep. Engine loop is the single writer.
	ctlDrops []atomic.Uint64

	lab   *traceLabels // typed trace labels, nil when Trace is nil
	m     *engMetrics  // registry instruments, nil when Metrics is nil
	stamp bool         // stamp outgoing frames with a send timestamp

	// qsnap is the cross-goroutine quarantine snapshot: the engine loop
	// stores an immutable slice on every quarantine/recovery; any
	// goroutine may load it through Quarantined().
	qsnap atomic.Pointer[[]QuarantinedEndpoint]
}

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

// epCache is what the engine knows about one descriptor slot. The zero
// value is the cache of a never-allocated slot (config word 0).
type epCache struct {
	cfgWord   uint64 // config word the cache was built from
	info      *commbuf.EndpointInfo
	fault     FaultKind // != FaultNone while the slot is quarantined
	faultPass uint64    // Polls value when the fault was detected
}

// activeSend is one entry of the send scan: a healthy send endpoint and
// the two queue words whose equality means it has nothing queued.
type activeSend struct {
	info             *commbuf.EndpointInfo
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
		cfgOffs:    make([]int, buf.Config().MaxEndpoints),
		orderStale: true,
		frame:      make([]byte, buf.Config().MessageSize),
		sendSeqs:   make([]uint8, buf.Config().MaxEndpoints),
		ctlDrops:   make([]atomic.Uint64, buf.Config().MaxEndpoints),
	}
	for i := range e.cfgOffs {
		e.cfgOffs[i], _ = buf.EndpointCfgOffset(i)
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
	}
	e.stamp = cfg.Stamp || cfg.Metrics != nil
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

// endpoint returns the engine's cached handle for slot i, rebuilding it
// when the shared descriptor changed (allocation, free, generation
// bump). Change detection is one config-word load and a compare; only a
// changed word pays for refresh.
func (e *Engine) endpoint(i int) *commbuf.EndpointInfo {
	if w := e.view.Load(e.cfgOffs[i]); w != e.eps[i].cfgWord {
		e.refresh(i, w)
	}
	return e.eps[i].info
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
	recovered := e.eps[i].fault != FaultNone
	info, err := e.buf.OpenEndpointChecked(e.view, i)
	e.eps[i] = epCache{cfgWord: w, info: info}
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
	return work
}

// deliver places one arrived frame into its destination endpoint, or
// discards it with accounting. This is the receiving half of the
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
	info := e.endpoint(slot)
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
	if info == nil || info.Type != commbuf.EndpointRecv || info.Gen != dst.Gen() {
		// Unallocated, wrong-type, or stale-generation destination.
		e.stats.AddrDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvBadendpoint, uint64(dst))
		}
		return
	}
	// The queue-invariant check is fused into the peek, so its price is
	// paid per message and an empty queue costs the same either way.
	var id uint64
	var err error
	if e.cfg.ValidityChecks {
		id, ok, err = info.Queue.ProcessPeekChecked(e.view)
	} else {
		id, ok = info.Queue.ProcessPeek(e.view)
	}
	if err != nil {
		// Wild queue pointers: nothing read from this queue can be
		// trusted. Freeze the endpoint.
		e.quarantine(slot, FaultQueueInvariant)
		e.stats.QuarantineDrops++
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvQuarantined, uint64(dst))
		}
		return
	}
	if !ok {
		// No posted receive buffer: discard and count. The application
		// reads this counter via flipc's read-and-reset interface; flow
		// control is its job (or internal/flowctl's), not the transport's.
		info.Drops.Incr(e.view)
		e.stats.RecvDrops++
		if pkt.Flags&wire.FlagCtl != 0 {
			e.stats.CtlRecvDrops++
			e.noteCtlDrop(slot, info.Gen)
		}
		if e.lab != nil {
			e.cfg.Trace.Add1(e.lab.recvNobuffer, uint64(dst))
		}
		return
	}
	if e.cfg.ValidityChecks {
		if k := e.checkRecvBuffer(id); k != FaultNone {
			// A corrupted queue slot: refuse to touch memory and freeze
			// the endpoint — the queue is not advanced (a frozen queue
			// cannot mislead the engine again, and re-allocation is the
			// recovery path).
			e.quarantine(slot, k)
			e.stats.QuarantineDrops++
			if e.lab != nil {
				e.cfg.Trace.Add1(e.lab.recvQuarantined, uint64(dst))
			}
			return
		}
	}
	msg, err := e.buf.MsgByID(id)
	if err != nil {
		// Out-of-range buffer id caught without validity checks: still
		// unambiguous corruption, still never touched. Quarantine.
		e.quarantine(slot, FaultBadBufID)
		e.stats.QuarantineDrops++
		return
	}
	copy(msg.Payload(), pkt.Payload)
	msg.EngineFillRecv(e.view, int(pkt.Size), pkt.Flags)
	if err := info.Queue.AdvanceProcessChecked(e.view); err != nil {
		// The release pointer moved under us between peek and advance:
		// only a scribble can do that. The buffer was filled but cannot
		// be handed over; count the frame as quarantine loss.
		e.quarantine(slot, FaultQueueInvariant)
		e.stats.QuarantineDrops++
		return
	}
	e.stats.Delivered++
	if e.lab != nil {
		e.cfg.Trace.Add2(e.lab.recvDelivered, uint64(dst), uint64(pkt.Size))
	}
	if e.m != nil {
		// True one-way delivery latency: sender stamped the frame at
		// transmit, we are past the copy into the posted buffer.
		if pkt.Stamp != 0 {
			lat := time.Now().UnixNano() - pkt.Stamp
			if lat < 0 {
				lat = 0 // cross-host clock skew: clamp, never corrupt
			}
			e.m.latency.Observe(uint64(lat))
			e.m.epLatencyHist(slot).Observe(uint64(lat))
		}
		posted, _ := info.Queue.Depths(e.view)
		e.m.recvQDepth.Observe(uint64(posted))
	}
	if info.WakeupRequested(e.view) {
		if e.buf.Doorbell().Push(e.view, uint64(info.Index)) {
			e.stats.Doorbells++
		}
		// A full doorbell is harmless: the receiver also polls.
	}
}

// checkRecvBuffer validates a posted receive buffer id read from an
// application-writable queue slot, returning the fault category when
// the slot cannot be trusted.
func (e *Engine) checkRecvBuffer(id uint64) FaultKind {
	msg, err := e.buf.MsgByID(id)
	if err != nil {
		return FaultBadBufID
	}
	if _, _, _, state := msg.EngineMeta(e.view); state != commbuf.StateQueued {
		return FaultBadBufState
	}
	return FaultNone
}

// rebuildActive lists the healthy send endpoints in scan order: by slot
// for round-robin (which rotates its start through the list), by
// descending priority, slot order within a class, for PolicyPriority.
func (e *Engine) rebuildActive() {
	e.active = e.active[:0]
	for i := range e.eps {
		c := &e.eps[i]
		if c.info == nil || c.info.Type != commbuf.EndpointSend || c.fault != FaultNone {
			continue
		}
		process, release := c.info.Queue.ProcessWords()
		e.active = append(e.active, activeSend{
			info: c.info, process: process, release: release,
			low: e.cfg.ReservedQuantum > 0 && c.info.Priority < e.cfg.ReservePriority,
		})
	}
	if e.cfg.Policy == PolicyPriority {
		sort.SliceStable(e.active, func(a, b int) bool {
			return e.active[a].info.Priority > e.active[b].info.Priority
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
	for e.scanPos < len(e.active) && e.active[e.scanPos].info.Index < e.scan {
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
// per descriptor slot plus two per active send endpoint, and no store
// (DESIGN.md §3b).
func (e *Engine) pollSend() bool {
	// Change detection over every slot: an allocation, free, generation
	// bump or forged config word takes effect in the pass that reads it.
	for i, off := range e.cfgOffs {
		if w := e.view.Load(off); w != e.eps[i].cfgWord {
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
		if e.view.Load(a.process) == e.view.Load(a.release) {
			continue // nothing queued
		}
		if a.low && lowSpent >= lowLimit {
			continue // unreserved share exhausted this pass
		}
		info := a.info
		if e.m != nil {
			// Backlog sample: how deep the send queue stood when the
			// engine reached this endpoint.
			if depth, _ := info.Queue.Depths(e.view); depth > 0 {
				e.m.sendQDepth.Observe(uint64(depth))
			}
		}
		for budget > 0 {
			if a.low && lowSpent >= lowLimit {
				break
			}
			var id uint64
			var ok bool
			var err error
			if e.cfg.ValidityChecks {
				id, ok, err = info.Queue.ProcessPeekChecked(e.view)
			} else {
				id, ok = info.Queue.ProcessPeek(e.view)
			}
			if err != nil {
				// Wild queue pointers: freeze the endpoint before reading
				// a slot through them. No quantum is consumed — a faulty
				// endpoint cannot starve its neighbors in this pass.
				e.quarantine(info.Index, FaultQueueInvariant)
				work = true
				break
			}
			if !ok {
				break
			}
			verdict, kind := e.transmit(info, id)
			if verdict == txFault {
				// Corrupt buffer id or state: the queue cannot be advanced
				// past it safely (the slot is untrusted), so freeze the
				// endpoint. No quantum consumed.
				e.quarantine(info.Index, kind)
				work = true
				break
			}
			if verdict == txBusy {
				break // wire busy/peer down: preserve order, retry next pass
			}
			work = true
			if err := info.Queue.AdvanceProcessChecked(e.view); err != nil {
				// Release pointer scribbled between peek and advance.
				e.quarantine(info.Index, FaultQueueInvariant)
				break
			}
			budget--
			if a.low {
				lowSpent++
			}
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
func (e *Engine) transmit(info *commbuf.EndpointInfo, id uint64) (txVerdict, FaultKind) {
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
			size < 0 || size > e.buf.Config().MaxPayload() ||
			!e.buf.NodeAllowed(e.view, dst.Node()) {
			// Policy refusal: this message is dropped and counted, but the
			// endpoint is healthy and later messages flow.
			msg.EngineDropSend(e.view)
			info.Drops.Incr(e.view)
			e.stats.SendRefused++
			return txRefused, FaultNone
		}
	}
	e.sendSeqs[info.Index]++
	pkt := wire.Packet{
		Dst:      dst,
		Size:     uint16(size),
		Flags:    flags,
		Seq:      e.sendSeqs[info.Index],
		Payload:  msg.Payload()[:size],
		Checksum: e.cfg.Checksum,
	}
	if e.stamp {
		pkt.Stamp = time.Now().UnixNano()
	}
	if err := wire.Encode(&pkt, e.frame); err != nil {
		// Unencodable without checks enabled (e.g. invalid dst): treat
		// as a refused send rather than wedging the queue.
		e.sendSeqs[info.Index]--
		msg.EngineDropSend(e.view)
		info.Drops.Incr(e.view)
		e.stats.SendRefused++
		return txRefused, FaultNone
	}
	if !e.tr.TrySend(dst.Node(), e.frame) {
		e.sendSeqs[info.Index]-- // not sent; reuse the sequence number
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
