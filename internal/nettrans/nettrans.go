// Package nettrans is the ethernet-cluster transport: FLIPC frames
// carried over TCP using only the standard library's net package.
//
// The paper's development platforms were PC clusters interconnected by
// ethernet or a SCSI bus; the platform-independent components (the
// interface library and communication buffer) ran unchanged there, with
// only the messaging engine's transport binding differing. This package
// plays the ethernet role: it implements interconnect.Transport over a
// mesh of TCP connections, so the same internal/engine and
// internal/core code that runs on the simulated Paragon mesh runs
// across real sockets (see cmd/flipcd).
//
// Framing: each FLIPC message is exactly MessageSize bytes, so the TCP
// stream needs only a fixed-size read per frame, prefixed by a 4-byte
// magic+size preamble for stream-corruption detection. TCP gives the
// reliable ordered delivery per connection that FLIPC's optimistic
// protocol assumes of its interconnect.
//
// # Resilience
//
// The paper assumes "a reliable interconnect"; a TCP mesh is not one.
// Connections fail, and a production transport must recover rather than
// blacklist the peer. Each peer therefore runs a small connection state
// machine:
//
//	connected ──(write/read error)──▶ reconnecting
//	     ▲                                │
//	     └──────(redial or inbound hello)─┘
//
// While reconnecting, the transport redials the peer's last known
// address (or one supplied by a Resolver, e.g. a nameservice node
// registry) with exponential backoff and jitter, for as long as the
// transport is open; an inbound connection from the peer also revives
// the link, so either side can re-establish it. Close leaves every
// peer dead. Frames offered while a peer is down are refused and counted
// (Stats.PeerDowns) — never silently discarded — and a transport that
// implements PeerUp lets the engine distinguish "peer gone" from "wire
// busy, retry". Receive-side overload (a full inbox) is likewise
// counted (Stats.RxDrops). What nettrans still does not do, per the
// paper, is retransmit: frames in flight when a connection dies are
// lost, and loss accounting — not recovery — is the contract.
//
// # Receive path
//
// One reader goroutine per connection hands the engine's Poll bursts:
// every whole frame one read left buffered, up to burstBytes of frame
// bodies, copied back to back into one fresh slice and sent on the
// inbox in one hand-off. Poll returns one frame of its burst per call.
// InboxDepth still counts frames. Like the paper's engine the reader
// polls rather than waits
// while traffic flows: after a read that returned bytes it retries
// non-blocking reads for up to spinWindow before it parks in the
// netpoller, so a busy link never pays a thread wake-up per burst and
// an idle one parks within microseconds (Stats.RxParks counts parks).
// As in sync.Mutex, it spins only when another P and another CPU can
// run the engine meanwhile.
package nettrans

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flipc/internal/metrics"
	"flipc/internal/stats"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

const preambleMagic = 0xF11C

// preambleBytes is the per-frame stream preamble: magic(2) | size(2).
const preambleBytes = 4

// errConnDropped marks a connection torn down deliberately (DropConn,
// chaos tests) rather than by an I/O error.
var errConnDropped = errors.New("nettrans: connection dropped")

// PeerState is one peer's position in the connection state machine.
type PeerState uint8

// Peer states. A peer is Reconnecting from the moment its connection
// fails until a redial or inbound hello revives it; the transport
// never gives up on it. Dead is the state of every peer of a closed
// transport. There is no blacklisting on a send failure.
const (
	PeerUnknown PeerState = iota
	PeerConnected
	PeerReconnecting
	PeerDead
)

// String returns the state name.
func (s PeerState) String() string {
	switch s {
	case PeerConnected:
		return "connected"
	case PeerReconnecting:
		return "reconnecting"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// MarshalText renders the state as its name, the form /healthz shows.
func (s PeerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name back; an unrecognised one reads as
// PeerUnknown.
func (s *PeerState) UnmarshalText(b []byte) error {
	*s = PeerUnknown
	for st := PeerConnected; st <= PeerDead; st++ {
		if st.String() == string(b) {
			*s = st
		}
	}
	return nil
}

// Redial backoff shape: each failed attempt doubles the delay (up to
// ReconnectConfig.MaxBackoff), and each delay is drawn from
// d*[1-backoffJitter, 1] so a cluster's redials do not synchronise.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.5
)

// ReconnectConfig tunes the redial state machine.
type ReconnectConfig struct {
	// InitialBackoff is the delay before the first redial (default 10ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 2s).
	MaxBackoff time.Duration
}

func (rc *ReconnectConfig) applyDefaults() {
	if rc.InitialBackoff == 0 {
		rc.InitialBackoff = 10 * time.Millisecond
	}
	if rc.MaxBackoff == 0 {
		rc.MaxBackoff = 2 * time.Second
	}
}

// Config creates a transport with non-default behavior; see ListenConfig.
type Config struct {
	// Node is this node's cluster identity.
	Node wire.NodeID
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// MessageSize is the domain's fixed message size; every peer must
	// use the same value.
	MessageSize int
	// InboxDepth bounds buffered received frames (default 1024).
	// Frames arriving at a full inbox are dropped and counted; a burst
	// that does not fit enters as the prefix that does.
	InboxDepth int
	// Resolver, when non-nil, maps node IDs to dial addresses for
	// redialing peers whose address is not already known (typically
	// nameservice.NodeRegistry.Resolve). It may be called from redial
	// goroutines and must be safe for concurrent use.
	Resolver func(wire.NodeID) (string, bool)
	// Reconnect tunes the redial state machine.
	Reconnect ReconnectConfig
	// BatchWrites turns on aggregation: each peer's run is corked under
	// wire.Cork with a cap of MaxBatchFrames and written in one
	// conn.Write (the interconnect.BatchFlusher capability). Callers
	// driving TrySend without the engine must call FlushSends
	// themselves. Off by default: the cap is one frame, and TrySend
	// writes every frame synchronously.
	BatchWrites bool
	// MaxBatchFrames is the cork's run cap under BatchWrites
	// (wire.Cork.Frames, default 64).
	MaxBatchFrames int
	// FlushDeadline is the cork's deadline (wire.Cork.Deadline).
	FlushDeadline time.Duration
	// Trace, when non-nil, records peer lifecycle events (peer.up,
	// peer.down, peer.redial, rx.drop).
	Trace *trace.Ring
	// Metrics, when non-nil, exposes the transport's loss-accounting
	// counters and per-peer health through the registry. The transport
	// keeps its own atomics as the source of truth and registers
	// snapshot-time funcs over them, so the hot paths gain no new
	// stores.
	Metrics *metrics.Registry
}

// peer is one remote node's connection state machine plus counters.
type peer struct {
	node wire.NodeID

	mu           sync.Mutex
	conn         net.Conn // current send path; nil while down
	addr         string   // last known dial address ("" = inbound-only)
	state        PeerState
	attempts     int        // consecutive failed redials this outage
	redialing    bool       // a redial goroutine is live
	downAt       time.Time  // when the current outage began
	pending      []byte     // the corked run, preamble+frame each (see wire.Cork)
	pendingSince int64      // nanotime when the run's oldest frame was admitted
	reconnect    stats.Ewma // smoothed outage duration, milliseconds

	sent       atomic.Uint64
	sendFails  atomic.Uint64
	reconnects atomic.Uint64
}

// PeerHealth is a snapshot of one peer's state and loss counters, in
// the form the "peers" health source shows it.
type PeerHealth struct {
	Node         wire.NodeID `json:"node"`
	State        PeerState   `json:"state"`
	Addr         string      `json:"addr,omitempty"`     // dial address, "" if only ever inbound
	Sent         uint64      `json:"sent"`               // frames written to this peer
	SendFailures uint64      `json:"send_failures"`      // frames refused while down (each is a counted loss)
	Reconnects   uint64      `json:"reconnects"`         // times the link was re-established
	Attempts     int         `json:"attempts,omitempty"` // failed redials in the current outage
	MeanOutageMs float64     `json:"mean_outage_ms"`     // smoothed outage duration (EWMA)
}

// Degraded reports a peer whose link is not up: frames to it are being
// refused (and counted) until it reconnects.
func (h PeerHealth) Degraded() bool { return h.State != PeerConnected }

// Stats counts transport-wide activity. Every frame the transport
// refuses or discards lands in PeerDowns or RxDrops — loss is never
// silent.
type Stats struct {
	Sent       uint64 // frames accepted for a peer (written, or corked) or looped back
	Delivered  uint64 // frames handed to the inbox, looped-back ones included
	PeerDowns  uint64 // sends refused: peer disconnected/unknown/dead
	RxDrops    uint64 // received or looped-back frames dropped: inbox full
	Reconnects uint64 // peer links re-established
	// FlushLost counts frames accepted into a peer's corked run and
	// then lost because the connection died before the flush completed
	// — the batched-write analogue of frames lost in a dead TCP
	// buffer, and like them a counted, never silent loss.
	// A frame whose own TrySend was refused is never in FlushLost: it
	// stays queued at the engine, so counting it here too would both
	// lose and deliver it.
	FlushLost uint64
	// CtlBypass counts frames wire.Cork sent alone, past the cork:
	// control-class frames under BatchWrites.
	CtlBypass uint64
	// FlushHeld counts FlushSends passes that left a peer's cork in
	// place because its oldest frame was still inside the flush
	// deadline.
	FlushHeld uint64
	// RxParks counts the readers' fallbacks to a blocking read: none
	// while a link's traffic keeps its reader spinning, about one per
	// silence on an idle link.
	RxParks uint64
}

// Transport is a TCP-backed interconnect.Transport. Create one per
// node with Listen (or ListenConfig), connect peers with Dial or
// Register (or accept inbound), then hand it to engine.New.
type Transport struct {
	cfg Config
	ln  net.Listener

	mu    sync.Mutex // serializes peerFor's growth of peers
	peers atomic.Pointer[peerTable]

	// connMu guards conns, the set of every live connection — primary
	// send paths and duplicates from simultaneous dials alike — so
	// Close can tear all of them down. Leaf lock: nothing else is
	// acquired while holding it.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	inbox  chan []byte // bursts of back-to-back frames
	cur    []byte      // the rest of the burst Poll is working through
	closed chan struct{}
	once   sync.Once

	// rxDropLab is the interned typed-trace label for the hot rx.drop
	// event (the only trace event on the receive path; lifecycle events
	// stay on the formatted slow path because they carry errors).
	rxDropLab trace.Label

	cork wire.Cork

	sent, peerDowns, reconnects, flushLost, ctlBypass, flushHeld atomic.Uint64

	// pendingFrames counts the frames corked across all peers so the
	// engine's every-pass FlushSends exits without touching peer locks
	// when nothing is corked.
	pendingFrames atomic.Int64

	// The socket readers store these on every burst. The pads keep them
	// off the lines the send path and Poll use, wherever the Transport
	// lands in its size class (most are not multiples of 64 bytes).
	_                  [64]byte
	delivered, rxDrops atomic.Uint64
	queued             atomic.Int64 // frames in the inbox: readers add, Poll subtracts per burst
	rxParks            atomic.Uint64
	_                  [64]byte
}

// peerTable is the grow-only peer set: peerFor publishes a grown copy
// under Transport.mu, every other reader takes one atomic load.
type peerTable struct {
	byNode []*peer // indexed by node, nil where no peer
	all    []*peer // attach order
}

// Listen creates a transport for node accepting peer connections on
// addr (e.g. "127.0.0.1:0") with default configuration. messageSize is
// the domain's fixed message size.
func Listen(node wire.NodeID, addr string, messageSize int) (*Transport, error) {
	return ListenConfig(Config{Node: node, Addr: addr, MessageSize: messageSize})
}

// ListenConfig creates a transport from an explicit configuration.
func ListenConfig(cfg Config) (*Transport, error) {
	if err := wire.CheckMessageSize(cfg.MessageSize); err != nil {
		return nil, err
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 1024
	}
	if cfg.MaxBatchFrames <= 0 {
		cfg.MaxBatchFrames = 64
	}
	cfg.Reconnect.applyDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("nettrans: listen %s: %w", cfg.Addr, err)
	}
	t := &Transport{
		cfg:    cfg,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		inbox:  make(chan []byte, cfg.InboxDepth), // a burst holds at least one frame
		closed: make(chan struct{}),
		cork:   wire.Cork{Frames: 1, Deadline: int64(cfg.FlushDeadline)},
	}
	if cfg.BatchWrites {
		t.cork.Frames = cfg.MaxBatchFrames
	}
	t.peers.Store(&peerTable{})
	if cfg.Trace != nil {
		t.rxDropLab = cfg.Trace.Label("rx.drop")
	}
	if cfg.Metrics != nil {
		t.registerMetrics(cfg.Metrics)
	}
	go t.acceptLoop()
	return t, nil
}

// registerMetrics bridges the transport's loss-accounting atomics into
// the registry as snapshot-time funcs, and registers the "peers"
// health source: every peer's health, healthy while all are connected.
// Per-peer instruments are added lazily by peerFor as peers appear.
func (t *Transport) registerMetrics(reg *metrics.Registry) {
	reg.Func("flipc_transport_sent_total", func() float64 { return float64(t.sent.Load()) })
	reg.Func("flipc_transport_delivered_total", func() float64 { return float64(t.delivered.Load()) })
	reg.Func("flipc_transport_peer_downs_total", func() float64 { return float64(t.peerDowns.Load()) })
	reg.Func("flipc_transport_rx_drops_total", func() float64 { return float64(t.rxDrops.Load()) })
	reg.Func("flipc_transport_reconnects_total", func() float64 { return float64(t.reconnects.Load()) })
	reg.Func("flipc_transport_flush_lost_total", func() float64 { return float64(t.flushLost.Load()) })
	reg.Func("flipc_transport_ctl_bypass_total", func() float64 { return float64(t.ctlBypass.Load()) })
	reg.Func("flipc_transport_flush_held_total", func() float64 { return float64(t.flushHeld.Load()) })
	reg.Func("flipc_transport_rx_parks_total", func() float64 { return float64(t.rxParks.Load()) })
	reg.Func("flipc_transport_pending_frames", func() float64 { return float64(t.pendingFrames.Load()) })
	reg.Func("flipc_transport_inbox_depth", func() float64 { return float64(t.queued.Load()) })
	reg.Status("peers", func() (any, bool) {
		hs := t.Health()
		return hs, !slices.ContainsFunc(hs, PeerHealth.Degraded)
	})
}

// registerPeerMetrics exposes one peer's health through the registry.
// Called once per peer from peerFor; the funcs read the peer's own
// atomics (and, for state, its mutex) at snapshot time only.
func (t *Transport) registerPeerMetrics(reg *metrics.Registry, p *peer) {
	node := strconv.Itoa(int(p.node))
	reg.Func(metrics.Name("flipc_peer_sent_total", "peer", node),
		func() float64 { return float64(p.sent.Load()) })
	reg.Func(metrics.Name("flipc_peer_send_failures_total", "peer", node),
		func() float64 { return float64(p.sendFails.Load()) })
	reg.Func(metrics.Name("flipc_peer_reconnects_total", "peer", node),
		func() float64 { return float64(p.reconnects.Load()) })
	reg.Func(metrics.Name("flipc_peer_state", "peer", node),
		func() float64 { return float64(p.health().State) })
	reg.Func(metrics.Name("flipc_peer_mean_outage_ms", "peer", node),
		func() float64 { return p.health().MeanOutageMs })
}

// Addr returns the listening address to advertise to peers.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// LocalNode implements interconnect.Transport.
func (t *Transport) LocalNode() wire.NodeID { return t.cfg.Node }

func (t *Transport) traceEvent(what string, args ...interface{}) {
	if t.cfg.Trace != nil {
		t.cfg.Trace.Add(what, args...)
	}
}

// track registers a live connection for shutdown teardown. It reports
// false (and leaves the connection untracked) if the transport has
// already closed.
func (t *Transport) track(conn net.Conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.conns == nil {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *Transport) untrack(conn net.Conn) {
	t.connMu.Lock()
	delete(t.conns, conn)
	t.connMu.Unlock()
}

// lookup returns node's state machine, or nil for a node this
// transport has never seen.
func (t *Transport) lookup(node wire.NodeID) *peer {
	if byNode := t.peers.Load().byNode; int(node) < len(byNode) {
		return byNode[node]
	}
	return nil
}

// peerFor returns the state machine for node, creating it if needed.
func (t *Transport) peerFor(node wire.NodeID) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.lookup(node); p != nil {
		return p
	}
	p := &peer{node: node, state: PeerUnknown}
	old := t.peers.Load()
	byNode := make([]*peer, max(len(old.byNode), int(node)+1))
	copy(byNode, old.byNode)
	byNode[node] = p
	t.peers.Store(&peerTable{byNode: byNode, all: append(slices.Clip(old.all), p)})
	if t.cfg.Metrics != nil {
		t.registerPeerMetrics(t.cfg.Metrics, p)
	}
	return p
}

// acceptLoop admits inbound peers. Each connection starts with a
// 4-byte hello carrying the peer's node ID. The connection is tracked
// before the hello so Close also ends a dialer that never sends one.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			if !t.track(conn) {
				conn.Close()
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				t.untrack(conn)
				conn.Close()
				return
			}
			// A first connection, or an inbound revival of a failed link
			// (the peer redialed us).
			t.attach(t.peerFor(wire.NodeID(binary.BigEndian.Uint16(hello[0:2]))), conn, "")
		}()
	}
}

// attach makes conn — tracked, hello exchanged — p's send path unless
// another connection already is, and starts its reader either way. A
// surplus connection (both sides dialed at once) stays a tracked, read
// duplicate: the remote may have adopted it as its send path, so
// closing it would sever the link being established, and Close tears
// it down with the rest. A non-empty addr is where conn was dialed.
// attach reports whether conn became the send path.
func (t *Transport) attach(p *peer, conn net.Conn, addr string) bool {
	p.mu.Lock()
	if addr != "" {
		p.addr = addr
	}
	adopted := p.conn == nil && !t.isClosed()
	if adopted {
		revived := p.state == PeerReconnecting
		p.conn = conn
		p.state = PeerConnected
		p.attempts = 0
		if revived {
			p.reconnect.Observe(float64(time.Since(p.downAt).Microseconds()) / 1000)
			p.reconnects.Add(1)
			t.reconnects.Add(1)
		}
		t.traceEvent("peer.up", p.node, revived)
	}
	p.mu.Unlock()
	go t.readLoop(p, conn)
	return adopted
}

// connFailedLocked handles a dead connection. Caller holds p.mu. If
// conn is still p's send path the peer transitions to reconnecting and
// a redial is kicked off; a stale duplicate is just torn down.
func (t *Transport) connFailedLocked(p *peer, conn net.Conn, err error) {
	t.untrack(conn)
	conn.Close()
	if p.conn != conn {
		return
	}
	p.conn = nil
	t.dropPendingLocked(p, 0)
	p.downAt = time.Now()
	p.state = PeerReconnecting
	t.traceEvent("peer.down", p.node, err)
	t.kickRedialLocked(p)
}

// kickRedialLocked starts the redial goroutine for p if active
// reconnection applies. Caller holds p.mu.
func (t *Transport) kickRedialLocked(p *peer) {
	if p.redialing || t.isClosed() {
		return
	}
	if p.addr == "" && t.cfg.Resolver == nil {
		// Inbound-only peer with no way to find it: wait passively for
		// the peer to redial us.
		return
	}
	p.redialing = true
	go t.redialLoop(p)
}

func (t *Transport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// redialLoop re-establishes p's link with exponential backoff and
// jitter. It exits when the link revives (from either side) or the
// transport closes.
func (t *Transport) redialLoop(p *peer) {
	defer func() {
		p.mu.Lock()
		p.redialing = false
		p.mu.Unlock()
	}()
	rc := t.cfg.Reconnect
	backoff := rc.InitialBackoff
	timer := time.NewTimer(0)
	defer timer.Stop()
	for attempt := 1; ; attempt++ {
		timer.Reset(time.Duration(float64(backoff) * (1 - backoffJitter*rand.Float64())))
		select {
		case <-t.closed:
			return
		case <-timer.C:
		}

		p.mu.Lock()
		if p.conn != nil || p.state == PeerDead {
			p.mu.Unlock()
			return // revived inbound, or the transport closed
		}
		addr := p.addr
		p.mu.Unlock()
		if addr == "" && t.cfg.Resolver != nil {
			if a, ok := t.cfg.Resolver(p.node); ok {
				addr = a
			}
		}

		var conn net.Conn
		err := fmt.Errorf("nettrans: no address for node %d", p.node)
		if addr != "" {
			conn, err = t.dialHello(addr)
		}
		if err == nil {
			if t.track(conn) {
				t.attach(p, conn, addr)
			} else {
				conn.Close()
			}
			return
		}

		t.traceEvent("peer.redial", p.node, attempt, err)
		p.mu.Lock()
		p.attempts = attempt
		p.mu.Unlock()
		backoff = min(backoff*backoffMultiplier, rc.MaxBackoff)
	}
}

// dialHello dials addr and sends this node's hello.
func (t *Transport) dialHello(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var hello [4]byte
	binary.BigEndian.PutUint16(hello[0:2], uint16(t.cfg.Node))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Dial connects to a peer's listening address synchronously. One
// connection per node pair suffices: it is full duplex (the dialer
// writes to it directly, the listener writes back on its accepted
// side), so by convention the lower-numbered node dials the higher.
// The address is remembered for automatic redialing.
func (t *Transport) Dial(node wire.NodeID, addr string) error {
	p := t.peerFor(node)
	if t.PeerUp(node) {
		return fmt.Errorf("nettrans: node %d already connected", node)
	}
	conn, err := t.dialHello(addr)
	if err != nil {
		return fmt.Errorf("nettrans: dial node %d at %s: %w", node, addr, err)
	}
	if !t.track(conn) {
		conn.Close()
		return fmt.Errorf("nettrans: transport closed")
	}
	if !t.attach(p, conn, addr) {
		// A simultaneous inbound hello won the adoption race.
		return fmt.Errorf("nettrans: node %d already connected", node)
	}
	return nil
}

// Register records a peer's dial address and starts connecting in the
// background through the redial state machine. Unlike Dial it never
// blocks or fails on an unreachable peer — the link comes up whenever
// the peer does, making daemon start order irrelevant.
func (t *Transport) Register(node wire.NodeID, addr string) {
	p := t.peerFor(node)
	p.mu.Lock()
	p.addr = addr
	if p.conn == nil {
		if p.state != PeerReconnecting {
			p.downAt = time.Now()
			p.state = PeerReconnecting
		}
		t.kickRedialLocked(p)
	}
	p.mu.Unlock()
}

// DropConn severs the current connection to node, simulating a link
// failure: the normal recovery path (state machine, redial, counters)
// takes over. Chaos tests and operational drains use this.
func (t *Transport) DropConn(node wire.NodeID) {
	if p := t.lookup(node); p != nil {
		p.mu.Lock()
		if p.conn != nil {
			t.connFailedLocked(p, p.conn, errConnDropped)
		}
		p.mu.Unlock()
	}
}

// parsePreamble validates one frame preamble against the boot-time
// message size. Factored from readLoop so the parser — the only part
// of the stream layer that interprets peer-controlled framing bytes —
// can be driven directly by the fuzz harness.
func parsePreamble(pre []byte, messageSize int) error {
	if len(pre) < preambleBytes {
		return fmt.Errorf("nettrans: short preamble (%d bytes)", len(pre))
	}
	if m := binary.BigEndian.Uint16(pre[0:2]); m != preambleMagic {
		return fmt.Errorf("nettrans: bad preamble magic %#04x", m)
	}
	if size := int(binary.BigEndian.Uint16(pre[2:4])); size != messageSize {
		return fmt.Errorf("nettrans: frame size %d != boot-time message size %d", size, messageSize)
	}
	return nil
}

// spinWindow is how long a reader polls an empty socket before it
// parks. It is the ski-rental bound: spinning longer than a park and
// wake-up costs cannot pay, and that cost — the reader's wake-up seen
// by the engine, bench row path.wait_transport_ns on p2p_tcp — measured
// about 10 µs on loopback.
const spinWindow = 10 * time.Microsecond

// rxConn is a reader's side of its connection, under its bufio.Reader
// (see the package doc's receive path).
type rxConn struct {
	conn  net.Conn
	raw   syscall.RawConn // nil: not a syscall.Conn, every read blocks
	parks *atomic.Uint64
	spin  bool // the last read returned bytes, and another P and CPU exist
	buf   []byte
	n     int
	err   error
	try   func(fd uintptr) bool // bound once: a closure per read allocates
}

func newRxConn(conn net.Conn, parks *atomic.Uint64) *rxConn {
	r := &rxConn{conn: conn, parks: parks}
	if sc, ok := conn.(syscall.Conn); ok {
		r.raw, _ = sc.SyscallConn() // on error raw stays nil: reads block
	}
	// One non-blocking read(2); true tells RawConn.Read not to wait.
	r.try = func(fd uintptr) bool { r.n, r.err = syscall.Read(int(fd), r.buf); return true }
	return r
}

func (r *rxConn) Read(p []byte) (int, error) {
	if r.spin {
		r.buf = p
		for start := time.Now(); r.raw.Read(r.try) == nil; {
			if r.n > 0 {
				return r.n, nil
			}
			// EOF and errors fall through to conn.Read, which reports them.
			if r.err != syscall.EAGAIN || time.Since(start) > spinWindow {
				break
			}
		}
	}
	r.parks.Add(1)
	n, err := r.conn.Read(p)
	r.spin = n > 0 && r.raw != nil && min(runtime.GOMAXPROCS(0), runtime.NumCPU()) > 1
	return n, err
}

// burstBytes caps the frame bodies one burst carries; a burst always
// holds at least one frame. At 128-byte messages that is a corked run
// of 8, and every multiple of 128 up to it is a Go size class, so the
// copy never rounds up.
const burstBytes = 1024

// readLoop pumps frames from one of p's connections into the inbox, one
// burst per pass: every whole frame the last read left buffered (one
// read(2) per corked run, not one per frame), up to burstBytes.
func (t *Transport) readLoop(p *peer, conn net.Conn) {
	ms := t.cfg.MessageSize
	fs := preambleBytes + ms
	r := bufio.NewReaderSize(newRxConn(conn, &t.rxParks), 64<<10)
	fail := func(err error) {
		p.mu.Lock()
		t.connFailedLocked(p, conn, err)
		p.mu.Unlock()
	}
	for {
		if _, err := r.Peek(fs); err != nil {
			fail(err)
			return
		}
		n := min(r.Buffered()/fs, max(1, burstBytes/ms))
		raw, _ := r.Peek(n * fs)
		burst := make([]byte, 0, n*ms)
		var err error
		for ; len(raw) > 0 && err == nil; raw = raw[fs:] {
			if err = parsePreamble(raw, ms); err == nil {
				burst = append(burst, raw[preambleBytes:fs]...)
			}
		}
		r.Discard(n * fs)
		// The frames in front of a corrupt preamble are good: hand them
		// over before the connection goes.
		if len(burst) > 0 && !t.enqueue(burst, p.node) {
			return
		}
		if err != nil {
			// Stream corrupt or size mismatch: drop the connection
			// rather than deliver garbage.
			fail(fmt.Errorf("nettrans: corrupt stream from node %d: %w", p.node, err))
			return
		}
	}
}

// enqueue hands a burst of frames from node to Poll in one send: the
// prefix the inbox has room for, each frame past it dropped and
// counted. It reports false once the transport is closed.
func (t *Transport) enqueue(burst []byte, from wire.NodeID) bool {
	n := int64(len(burst) / t.cfg.MessageSize)
	q := t.queued.Load()
	kept := min(n, int64(t.cfg.InboxDepth)-q)
	for kept > 0 && !t.queued.CompareAndSwap(q, q+kept) {
		q = t.queued.Load()
		kept = min(n, int64(t.cfg.InboxDepth)-q)
	}
	kept = max(kept, 0)
	if kept > 0 {
		// The reservation leaves the channel room: every burst in it
		// holds at least one of at most InboxDepth queued frames.
		select {
		case t.inbox <- burst[:kept*int64(t.cfg.MessageSize)]:
			t.delivered.Add(uint64(kept))
		case <-t.closed:
			return false
		}
	}
	if kept < n {
		// Inbox full: FLIPC semantics allow dropping here — but the
		// loss must be visible, so count it.
		t.rxDrops.Add(uint64(n - kept))
		if t.cfg.Trace != nil {
			for range n - kept {
				t.cfg.Trace.Add1(t.rxDropLab, uint64(from))
			}
		}
	}
	return true
}

// TrySend implements interconnect.Transport. The frame joins dst's
// corked run, which wire.Cork may have written at once; TCP's buffers
// make the write effectively non-blocking at FLIPC message sizes
// unless the peer has stopped reading. A failed write marks the peer
// down and starts recovery; the refusal is counted, and the engine
// keeps the message queued, so nothing is silently lost on this side
// of the wire. A frame addressed to this transport's own node loops
// back: it is copied into the inbox as a one-frame burst, past any cork.
func (t *Transport) TrySend(dst wire.NodeID, frame []byte) bool {
	if len(frame) != t.cfg.MessageSize {
		return false
	}
	if dst == t.cfg.Node {
		if t.isClosed() {
			t.peerDowns.Add(1)
			return false
		}
		t.sent.Add(1)
		t.enqueue(append([]byte(nil), frame...), dst)
		return true
	}
	p := t.lookup(dst)
	if p == nil {
		t.peerDowns.Add(1)
		return false
	}
	p.mu.Lock()
	ok := p.conn != nil && t.sendLocked(p, frame)
	p.mu.Unlock()
	if !ok {
		p.sendFails.Add(1)
		t.peerDowns.Add(1)
		return false
	}
	p.sent.Add(1)
	t.sent.Add(1)
	return true
}

// epoch anchors nanotime, the monotonic clock of the corked runs.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// sendLocked admits frame to p's run under t.cork and reports whether
// the link took it. Caller holds p.mu and has verified p.conn is live.
func (t *Transport) sendLocked(p *peer, frame []byte) bool {
	held := t.held(p)
	act := t.cork.Admit(held, frame[6])
	if act == wire.CorkAlone && !t.flushPeerLocked(p, 0) {
		return false
	}
	var pre [preambleBytes]byte
	binary.BigEndian.PutUint16(pre[0:2], preambleMagic)
	binary.BigEndian.PutUint16(pre[2:4], uint16(t.cfg.MessageSize))
	p.pending = append(append(p.pending, pre[:]...), frame...)
	if act == wire.CorkHold {
		if held == 0 {
			p.pendingSince = nanotime()
		}
		t.pendingFrames.Add(1)
		return true
	}
	// A failed write counts the rest of the run as FlushLost but not
	// this frame: its refusal keeps the message queued at the engine,
	// and counting it too would record it both lost and (after the
	// retry) delivered.
	if !t.flushPeerLocked(p, 1) {
		return false
	}
	if act == wire.CorkAlone {
		t.ctlBypass.Add(1)
	}
	return true
}

// held returns the number of frames in p's run. Caller holds p.mu.
func (t *Transport) held(p *peer) int {
	return len(p.pending) / (preambleBytes + t.cfg.MessageSize)
}

// dropPendingLocked discards p's run, counting its frames as FlushLost
// except the last exclude of them: the frames whose own TrySend is
// being refused, which stay queued at the engine and must not be
// double-accounted, and which pendingFrames never counted. Caller
// holds p.mu.
func (t *Transport) dropPendingLocked(p *peer, exclude int) {
	if n := t.held(p) - exclude; n > 0 {
		t.pendingFrames.Add(-int64(n))
		t.flushLost.Add(uint64(n))
	}
	p.pending = p.pending[:0]
}

// flushPeerLocked writes p's run in one conn.Write, reporting whether
// the peer's link survived. On a write error the run is counted lost
// (minus exclude, see dropPendingLocked) before the link is torn down.
// Caller holds p.mu.
func (t *Transport) flushPeerLocked(p *peer, exclude int) bool {
	if len(p.pending) == 0 {
		return true
	}
	conn := p.conn
	if conn == nil {
		t.dropPendingLocked(p, exclude)
		return false
	}
	if _, err := conn.Write(p.pending); err != nil {
		// Count the run before the teardown: connFailedLocked's own
		// dropPendingLocked would count every frame, including one the
		// caller is about to report refused.
		t.dropPendingLocked(p, exclude)
		t.connFailedLocked(p, conn, err)
		return false
	}
	t.pendingFrames.Add(-int64(t.held(p) - exclude))
	p.pending = p.pending[:0]
	return true
}

// FlushSends implements interconnect.BatchFlusher: it writes every
// peer's run that t.cork says is due, one write per peer, and counts
// each run it leaves corked in FlushHeld. A no-op when nothing is
// corked anywhere.
func (t *Transport) FlushSends() {
	if t.pendingFrames.Load() == 0 {
		return
	}
	now := nanotime()
	for _, p := range t.peers.Load().all {
		p.mu.Lock()
		if len(p.pending) > 0 && !t.cork.Due(p.pendingSince, now) {
			t.flushHeld.Add(1)
		} else {
			t.flushPeerLocked(p, 0)
		}
		p.mu.Unlock()
	}
}

// Poll implements interconnect.Transport: it returns the next frame of
// the burst it holds, and takes the next burst from the inbox when that
// one is spent. A frame's capacity ends with it, so an append to it
// cannot write into the next frame of its burst.
func (t *Transport) Poll() ([]byte, bool) {
	ms := t.cfg.MessageSize
	if len(t.cur) == 0 {
		select {
		case t.cur = <-t.inbox:
			t.queued.Add(-int64(len(t.cur) / ms))
		default:
			return nil, false
		}
	}
	f := t.cur[:ms:ms]
	t.cur = t.cur[ms:]
	return f, true
}

// PeerUp reports whether dst's link is currently established; this
// transport's own node, which TrySend loops back to, is always up. The
// engine uses this (via interconnect.PeerStatusReporter) to distinguish
// "peer gone" from "wire busy".
func (t *Transport) PeerUp(dst wire.NodeID) bool {
	return dst == t.cfg.Node || t.PeerState(dst) == PeerConnected
}

// PeerState returns dst's position in the connection state machine
// (PeerUnknown for a node this transport has never seen).
func (t *Transport) PeerState(dst wire.NodeID) PeerState {
	h, _ := t.PeerHealth(dst)
	return h.State
}

// PeerHealth returns one peer's health snapshot.
func (t *Transport) PeerHealth(dst wire.NodeID) (PeerHealth, bool) {
	if p := t.lookup(dst); p != nil {
		return p.health(), true
	}
	return PeerHealth{Node: dst, State: PeerUnknown}, false
}

func (p *peer) health() PeerHealth {
	p.mu.Lock()
	h := PeerHealth{
		Node:         p.node,
		State:        p.state,
		Addr:         p.addr,
		Attempts:     p.attempts,
		MeanOutageMs: p.reconnect.Value(),
	}
	p.mu.Unlock()
	h.Sent = p.sent.Load()
	h.SendFailures = p.sendFails.Load()
	h.Reconnects = p.reconnects.Load()
	return h
}

// Health returns every known peer's health snapshot, ordered by node.
func (t *Transport) Health() []PeerHealth {
	all := t.peers.Load().all
	out := make([]PeerHealth, len(all))
	for i, p := range all {
		out[i] = p.health()
	}
	slices.SortFunc(out, func(a, b PeerHealth) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// Peers returns the currently connected peer nodes.
func (t *Transport) Peers() []wire.NodeID {
	var out []wire.NodeID
	for _, h := range t.Health() {
		if h.State == PeerConnected {
			out = append(out, h.Node)
		}
	}
	return out
}

// Stats returns the transport's loss-accounting counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Sent:       t.sent.Load(),
		Delivered:  t.delivered.Load(),
		PeerDowns:  t.peerDowns.Load(),
		RxDrops:    t.rxDrops.Load(),
		Reconnects: t.reconnects.Load(),
		FlushLost:  t.flushLost.Load(),
		CtlBypass:  t.ctlBypass.Load(),
		FlushHeld:  t.flushHeld.Load(),
		RxParks:    t.rxParks.Load(),
	}
}

// openConns reports how many connections the transport is tracking
// (tests assert shutdown leaves none).
func (t *Transport) openConns() int {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	return len(t.conns)
}

// Close shuts down the listener and every live connection — primary
// send paths and duplicate accepted connections alike — and marks all
// peers dead so no redial survives.
func (t *Transport) Close() {
	t.once.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.connMu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.conns = nil
		t.connMu.Unlock()
		for _, p := range t.peers.Load().all {
			p.mu.Lock()
			p.conn = nil
			p.state = PeerDead
			t.dropPendingLocked(p, 0)
			p.mu.Unlock()
		}
	})
}
