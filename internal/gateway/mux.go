package gateway

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"flipc/internal/core"
	"flipc/internal/metrics"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// Config tunes a Mux.
type Config struct {
	// Name is the gateway's cluster-unique name; client presence keys
	// are "<Name>/<client id>" (required).
	Name string
	// Dir is the membership plane: patterns, presence, and the topics
	// clients publish to (required).
	Dir topic.Directory
	// InboxBuffers sizes each class inbox's posted-buffer pool and
	// queue depth (default 128). These three pools are the gateway's
	// entire receive-side footprint on the fabric, independent of how
	// many clients connect.
	InboxBuffers int
	// ClientQueue bounds each client's per-class outbound frame queue
	// (default 64). Overflow drops frames, counted per client — one
	// slow client backs up only its own queue, never the shared inbox.
	ClientQueue int
	// ThrottleAt marks a client throttled after this many consecutive
	// overflow drops on one lane (default 16); the throttle clears on
	// the first successful enqueue. Drops while throttled are counted
	// in the client's Throttled ledger, mirroring the publisher-side
	// credit discipline.
	ThrottleAt int
	// MaxPublishers bounds the per-topic publisher cache (default 64).
	// Evictions free the publisher's endpoint; a topic published again
	// later gets a fresh one.
	MaxPublishers int
	// Registry receives flipc_gw_* instruments and the "gateway" health
	// source, which is degraded while a class is saturated (optional).
	Registry *metrics.Registry
}

// pubWindow bounds each cached publisher's outstanding fanout frames.
const pubWindow = 64

// NumClasses is the number of priority lanes a gateway terminates.
const NumClasses = 3

func (c *Config) fill() error {
	if c.Name == "" {
		return fmt.Errorf("gateway: config needs a Name")
	}
	if len(c.Name) > MaxClientName {
		return fmt.Errorf("gateway: name %q too long", c.Name)
	}
	if c.Dir == nil {
		return fmt.Errorf("gateway: config needs a Dir")
	}
	for _, d := range []struct {
		knob *int
		def  int
	}{{&c.InboxBuffers, 128}, {&c.ClientQueue, 64}, {&c.ThrottleAt, 16}, {&c.MaxPublishers, 64}} {
		if *d.knob <= 0 {
			*d.knob = d.def
		}
	}
	return nil
}

// subKey is one (lane, pattern) subscription of one client.
type subKey struct {
	lane int
	pat  string
}

// pubEntry is one cached per-topic publisher.
type pubEntry struct {
	p       *topic.Publisher
	lastUse uint64 // housekeeping tick of last publish
}

// Mux is the gateway core: transport-agnostic and poll-driven, so the
// TCP front (server.go), the benchmark, and the virtual-time sim drive
// the same code. All fabric receive traffic lands on NumClasses shared
// inboxes subscribed through the registry's pattern plane, so every
// arriving frame is topic-enveloped (see topic/envelope.go).
type Mux struct {
	cfg Config
	d   *core.Domain
	dir topic.Directory
	in  [NumClasses]*msglib.Inbox

	mu       sync.Mutex
	clients  map[uint64]*Client
	nextID   uint64
	subs     [NumClasses]*nameservice.PatternIndex // pattern -> client ids, per lane
	refs     [NumClasses]map[string]int            // clients per (lane, pattern); the registry subscription lives while > 0
	pubs     map[string]*pubEntry
	tick     uint64
	departed []*Client    // detached, awaiting their writers' last PopOut; see reap
	leaving  atomic.Int32 // len(departed), for Pump to read without the lock

	// Pump-only: the frame slab and deliver's match scratch.
	slab    slab
	targets []*Client

	st        Stats // gateway-level ledgers (guarded by mu)
	lastDrops [NumClasses]uint64
	saturated [NumClasses]bool
	renewErrs uint64

	mConns, mThrottled, mPresence, mPatterns *metrics.Gauge
	mDelivered, mDropped, mThrottledDrops    *metrics.Counter
	mMatched, mUnmatched, mBad               *metrics.Counter
	mPubOK, mPubErrs                         *metrics.Counter
}

// NewMux creates the gateway core on domain d: three class inboxes and
// empty client state. The caller drives Pump (delivery), Housekeeping
// (lease renewal), and the client frame path.
func NewMux(d *core.Domain, cfg Config) (*Mux, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	m := &Mux{cfg: cfg, d: d, dir: cfg.Dir, clients: make(map[uint64]*Client), pubs: make(map[string]*pubEntry)}
	// A slot holds the largest deliver frame the fabric can carry: the
	// inbox envelope behind a length prefix, an op and a class byte.
	m.slab.size = d.MaxPayload() + frameHeaderBytes + 2
	m.slab.slots.Store(new([][]byte))
	for lane := 0; lane < NumClasses; lane++ {
		in, err := msglib.NewInbox(d, cfg.InboxBuffers, cfg.InboxBuffers)
		if err != nil {
			return nil, fmt.Errorf("gateway: class %d inbox: %w", lane, err)
		}
		m.in[lane] = in
		m.subs[lane] = nameservice.NewPatternIndex()
		m.refs[lane] = make(map[string]int)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry() // unscraped: the instruments stay non-nil
	} else {
		reg.Status("gateway", func() (any, bool) {
			h := m.Health()
			return h, !h.Degraded()
		})
	}
	m.instrument(reg)
	return m, nil
}

func (m *Mux) instrument(reg *metrics.Registry) {
	gw := m.cfg.Name
	g := func(n string) *metrics.Gauge { return reg.Gauge(metrics.Name("flipc_gw_"+n, "gw", gw)) }
	c := func(n string) *metrics.Counter { return reg.Counter(metrics.Name("flipc_gw_"+n, "gw", gw)) }
	m.mConns, m.mThrottled, m.mPresence, m.mPatterns = g("conns"), g("throttled_clients"), g("presence_leases"), g("patterns")
	m.mDelivered, m.mDropped, m.mThrottledDrops = c("delivered_total"), c("dropped_total"), c("throttled_total")
	m.mMatched, m.mUnmatched, m.mBad = c("matched_total"), c("unmatched_total"), c("bad_frames_total")
	m.mPubOK, m.mPubErrs = c("publish_total"), c("publish_errors_total")
	for lane := 0; lane < NumClasses; lane++ {
		in := m.in[lane]
		reg.Func(metrics.Name("flipc_gw_inbox_drops", "gw", gw, "class", topic.Class(lane).String()),
			func() float64 { return float64(in.Drops()) })
	}
}

// Attach admits a new client session (pre-hello). The TCP front calls
// it once per accepted connection.
func (m *Mux) Attach() *Client {
	c := newClient(m.cfg.ClientQueue, &m.slab)
	m.mu.Lock()
	m.nextID++
	c.id = m.nextID
	m.clients[c.id] = c
	m.mConns.Set(float64(len(m.clients)))
	m.mu.Unlock()
	return c
}

// Detach removes a client: subscriptions unreferenced (registry
// unsubscribe when a pattern's last client leaves), presence lease
// dropped, queue abandoned — its frames stay counted as queued, and the
// pump takes their slots back after the writer's last PopOut. Clean
// shutdown only — a cold-dead gateway never calls it, which is exactly
// the case the presence lease sweep covers.
func (m *Mux) Detach(c *Client) {
	m.mu.Lock()
	if c.closed.Load() { // already detached: its slots must not be handed back twice
		m.mu.Unlock()
		return
	}
	delete(m.clients, c.id)
	for sk := range c.subs {
		m.unrefLocked(c, sk)
	}
	c.closed.Store(true)
	m.departed = append(m.departed, c)
	m.leaving.Store(int32(len(m.departed)))
	key := c.key
	m.mConns.Set(float64(len(m.clients)))
	m.mu.Unlock()
	c.signal()

	if key != "" {
		// Best effort: lease expiry covers a failed drop.
		_ = topic.DropPresence(m.dir, key)
	}
}

// unrefLocked drops one (lane, pattern) reference; the registry
// subscription is released when the last client leaves. Caller holds
// m.mu.
func (m *Mux) unrefLocked(c *Client, sk subKey) {
	m.subs[sk.lane].Remove(sk.pat, c.id)
	if m.refs[sk.lane][sk.pat] > 1 {
		m.refs[sk.lane][sk.pat]--
		return
	}
	delete(m.refs[sk.lane], sk.pat)
	// Registry call outside the hot path would be nicer, but unref is
	// rare (client churn) and the Directory is required to be safe
	// under the Mux lock (Local and Remote both are).
	_ = topic.UnsubscribePattern(m.dir, sk.pat, m.in[sk.lane].Addr())
}

// enqueue hands slab slot i to one of c's class lanes, applying the
// overflow / throttle discipline; the slot gains a ref if it entered
// the queue. Pump-only. The ledgers count deliver frames, the only
// frames the class lanes carry.
func (m *Mux) enqueue(c *Client, lane int, i uint32) bool {
	if c.reclaim(lane) < m.cfg.ClientQueue && c.q[lane].Release(c.app, uint64(i)) {
		m.slab.refs[i]++
		c.overflow[lane] = 0
		if c.throttling {
			c.throttling = false
			c.app.Store(c.w+wThrottling, 0)
		}
		c.wake()
		return true
	}
	c.overflow[lane]++
	if c.overflow[lane] >= m.cfg.ThrottleAt && !c.throttling {
		c.throttling = true
		c.app.Store(c.w+wThrottling, 1)
	}
	if c.throttling {
		bump(c.app, c.w+wThrottled)
		m.mThrottledDrops.Inc()
	} else {
		bump(c.app, c.w+wDropped)
		m.mDropped.Inc()
	}
	return false
}

// Pump drains every class inbox, matching each enveloped frame against
// the lane's pattern index and fanning it into the matching clients'
// queues. Returns the number of inbox frames processed. Drive it from
// one goroutine (TCP front) or a virtual-time ticker (sim): it is the
// single writer of every pump-side word.
func (m *Mux) Pump() int {
	if m.leaving.Load() != 0 {
		m.reap()
	}
	done := 0
	for lane := NumClasses - 1; lane >= 0; lane-- {
		in := m.in[lane]
		for {
			msg, ok := in.ReceiveZeroCopy()
			if !ok {
				break
			}
			done++
			m.deliver(lane, msg.Payload()[:msg.Len()], msg.Flags())
			in.Done(msg)
		}
	}
	return done
}

// take fans out one frame a blocking receive took off the class inbox
// whose endpoint is from, as Pump does for the frames it drains.
func (m *Mux) take(from *core.Endpoint, msg *core.Message) {
	for lane, in := range m.in {
		if in.Endpoint() == from {
			m.deliver(lane, msg.Payload()[:msg.Len()], msg.Flags())
			in.Done(msg)
		}
	}
}

// reap takes back the slots of every departed client whose writer has
// made its last PopOut; the others wait for a later Pump.
func (m *Mux) reap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.departed[:0]
	for _, c := range m.departed {
		if c.app.Load(c.w+wQuit) == 0 {
			kept = append(kept, c)
			continue
		}
		for lane := 0; lane < NumClasses; lane++ {
			c.q[lane].Unacquired(c.app, func(v uint64) { m.slab.unref(uint32(v)) })
		}
	}
	clear(m.departed[len(kept):])
	m.departed = kept
	m.leaving.Store(int32(len(kept)))
}

// deliver fans one inbox frame out. m.mu is held from match through
// enqueue, so a Detach lands wholly before or after the frame.
func (m *Mux) deliver(lane int, env []byte, flags uint8) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.Received++
	name, _, ok := topic.OpenEnvelope(env)
	if !ok || len(name) > MaxClientName || 2+len(env) > MaxFrameBody {
		m.st.BadFrames++
		m.mBad.Inc()
		return
	}
	targets := m.targets[:0]
	m.subs[lane].MatchBytes(name, func(key uint64) {
		if c := m.clients[key]; c != nil {
			for _, t := range targets {
				if t == c {
					return
				}
			}
			targets = append(targets, c)
		}
	})
	m.targets = targets
	if len(targets) == 0 {
		m.st.Unmatched++
		m.mUnmatched.Inc()
		return
	}
	m.st.Matched += uint64(len(targets))
	m.mMatched.Add(uint64(len(targets)))
	i := m.slab.fill(env, uint8(topic.ClassFromFlags(flags))) // encoded once, straight from the commbuf
	delivered := 0
	for _, c := range targets {
		if m.enqueue(c, lane, i) {
			delivered++
		}
	}
	if delivered == 0 {
		m.slab.free = append(m.slab.free, i)
	}
	clear(targets) // the scratch must not pin clients that later depart
	m.mDelivered.Add(uint64(delivered))
}

// HandleFrame processes one client-protocol frame body from c,
// queueing any reply on c's reply lane. Safe for concurrent calls on
// distinct clients (the TCP front runs one reader per connection).
func (m *Mux) HandleFrame(c *Client, body []byte) {
	if len(body) > 1 && len(body) <= MaxFrameBody && body[0] == OpPub {
		m.handlePub(c, body[1:])
		return
	}
	f, err := DecodeBody(body)
	if err != nil {
		m.sendErr(c, ErrCodeBadFrame, "unparseable frame")
		return
	}
	switch f.Op {
	case OpHello:
		m.handleHello(c, f)
	case OpPing:
		c.sendReply(Frame{Op: OpPong, Payload: f.Payload}, m.cfg.ClientQueue)
	case OpSub:
		m.handleSub(c, f)
	case OpUnsub:
		m.handleUnsub(c, f)
	default:
		m.sendErr(c, ErrCodeBadFrame, "unexpected op")
	}
}

func (m *Mux) sendErr(c *Client, code byte, msg string) {
	c.sendReply(Frame{Op: OpErr, Code: code, Payload: []byte(msg)}, m.cfg.ClientQueue)
}

// hello names the client and takes out its presence lease. A repeated
// hello under the same name renews it; one under another name is
// refused, so the client holds one lease and Detach drops that one.
func (m *Mux) handleHello(c *Client, f Frame) {
	key := m.cfg.Name + "/" + f.Name
	if len(key) > nameservice.MaxPresenceName {
		m.sendErr(c, ErrCodeBadName, "client id too long")
		return
	}
	m.mu.Lock()
	renamed := c.name != "" && c.name != f.Name
	if !renamed {
		c.name, c.key = f.Name, key
	}
	m.mu.Unlock()
	if renamed {
		m.sendErr(c, ErrCodeBadFrame, "hello may not rename a client")
		return
	}
	if err := topic.UpsertPresence(m.dir, key, m.cfg.Name, m.in[int(topic.Control)].Addr()); err != nil {
		m.sendErr(c, ErrCodeBadName, "presence refused")
	}
}

// helloed reports whether the client has identified itself.
func (m *Mux) helloed(c *Client) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return c.name != ""
}

func (m *Mux) handleSub(c *Client, f Frame) {
	if !m.helloed(c) {
		m.sendErr(c, ErrCodeNoHello, "hello first")
		return
	}
	lane := int(f.Class)
	if lane >= NumClasses {
		m.sendErr(c, ErrCodeBadName, "bad class lane")
		return
	}
	if err := nameservice.ValidPattern(f.Name); err != nil {
		m.sendErr(c, ErrCodeBadName, "invalid pattern")
		return
	}
	sk := subKey{lane: lane, pat: f.Name}
	m.mu.Lock()
	if _, dup := c.subs[sk]; dup {
		m.mu.Unlock()
		return
	}
	c.subs[sk] = struct{}{}
	m.subs[lane].Add(f.Name, c.id)
	m.refs[lane][f.Name]++
	first := m.refs[lane][f.Name] == 1
	m.mu.Unlock()
	if first {
		if err := topic.SubscribePattern(m.dir, f.Name, m.in[lane].Addr()); err != nil {
			// Roll back: the client must not believe it is subscribed.
			m.mu.Lock()
			delete(c.subs, sk)
			m.unrefLocked(c, sk)
			m.mu.Unlock()
			m.sendErr(c, ErrCodeBadName, "registry refused pattern")
		}
	}
}

func (m *Mux) handleUnsub(c *Client, f Frame) {
	if !m.helloed(c) {
		m.sendErr(c, ErrCodeNoHello, "hello first")
		return
	}
	m.mu.Lock()
	for lane := 0; lane < NumClasses; lane++ {
		sk := subKey{lane: lane, pat: f.Name}
		if _, ok := c.subs[sk]; ok {
			delete(c.subs, sk)
			m.unrefLocked(c, sk)
		}
	}
	m.mu.Unlock()
}

// handlePub publishes one pub body (op byte stripped) in place: the
// topic name is looked up as bytes, and becomes a string only when a
// publisher is created for it.
func (m *Mux) handlePub(c *Client, rest []byte) {
	class, name, payload, ok := splitName(rest)
	if !ok {
		m.sendErr(c, ErrCodeBadFrame, "unparseable frame")
		return
	}
	m.mu.Lock()
	code, msg := m.publishLocked(c, topic.Class(class), name, payload)
	m.mu.Unlock()
	if code != 0 {
		m.sendErr(c, code, msg)
	}
}

// publishLocked returns the err code and message to answer with, or 0.
// Caller holds m.mu.
func (m *Mux) publishLocked(c *Client, class topic.Class, name, payload []byte) (byte, string) {
	switch {
	case c.name == "":
		return ErrCodeNoHello, "hello first"
	case !class.Valid() || class.IsDurable():
		return ErrCodeBadName, "bad publish class"
	case name[0] == '!' || bytes.IndexByte(name, '*') >= 0: // reserved, or a pattern (nameservice.ValidTopicName)
		return ErrCodeBadName, "invalid topic"
	}
	p, err := m.publisherLocked(name, class)
	if err == nil {
		_, err = p.Publish(payload)
	}
	if err != nil {
		m.st.PubErrs++
		m.mPubErrs.Inc()
		if p == nil {
			return ErrCodePublish, "publisher unavailable"
		}
		return ErrCodePublish, "publish failed"
	}
	m.st.PubOK++
	m.mPubOK.Inc()
	return 0, ""
}

// publisherLocked returns the cached publisher for the topic named by
// name, creating (and, at the cache bound, evicting the
// least-recently-used entry and freeing its endpoint) as needed.
// Caller holds m.mu.
func (m *Mux) publisherLocked(name []byte, class topic.Class) (*topic.Publisher, error) {
	if e := m.pubs[string(name)]; e != nil {
		e.lastUse = m.tick
		return e.p, nil
	}
	if len(m.pubs) >= m.cfg.MaxPublishers {
		var lruName string
		var lru *pubEntry
		for name, e := range m.pubs {
			if lru == nil || e.lastUse < lru.lastUse {
				lruName, lru = name, e
			}
		}
		if lru != nil {
			_ = lru.p.Outbox().Endpoint().Free()
			delete(m.pubs, lruName)
		}
	}
	topicName := string(name)
	p, err := topic.NewPublisher(m.d, m.dir, topic.PublisherConfig{
		Topic:  topicName,
		Class:  class,
		Window: pubWindow,
	})
	if err != nil {
		return nil, err
	}
	m.pubs[topicName] = &pubEntry{p: p, lastUse: m.tick}
	return p, nil
}

// Housekeeping runs one lease/health tick: renews every live pattern
// subscription and presence lease, refreshes cached publisher plans,
// and recomputes per-lane saturation from the inbox drop deltas. Call
// it on the registry's lease cadence. Returns the number of renewal
// errors (also accumulated for Health).
func (m *Mux) Housekeeping() int {
	m.mu.Lock()
	m.tick++
	var pats []subKey
	for lane := 0; lane < NumClasses; lane++ {
		for pat := range m.refs[lane] {
			pats = append(pats, subKey{lane, pat})
		}
	}
	var keys []string
	for _, c := range m.clients {
		if c.key != "" {
			keys = append(keys, c.key)
		}
	}
	var planRefresh []*topic.Publisher
	for _, e := range m.pubs {
		planRefresh = append(planRefresh, e.p)
	}
	for lane := 0; lane < NumClasses; lane++ {
		drops := m.in[lane].Drops()
		m.saturated[lane] = drops > m.lastDrops[lane]
		m.lastDrops[lane] = drops
	}
	ctlAddr := m.in[int(topic.Control)].Addr()
	m.mu.Unlock()

	errs := 0
	for _, r := range pats {
		if err := topic.SubscribePattern(m.dir, r.pat, m.in[r.lane].Addr()); err != nil {
			errs++
		}
	}
	for _, k := range keys {
		if err := topic.UpsertPresence(m.dir, k, m.cfg.Name, ctlAddr); err != nil {
			errs++
		}
	}
	for _, p := range planRefresh {
		_ = p.Refresh()
	}

	m.mu.Lock()
	m.renewErrs += uint64(errs)
	m.mu.Unlock()
	h := m.Health()
	m.mPatterns.Set(float64(h.Patterns))
	m.mPresence.Set(float64(h.Presence))
	m.mThrottled.Set(float64(h.Throttled))
	return errs
}

// ClassHealth is one priority lane's health snapshot.
type ClassHealth struct {
	Class      string `json:"class"`
	QueueDepth int    `json:"queue_depth"` // summed client queue lengths on this lane
	InboxDrops uint64 `json:"inbox_drops"` // frames lost at the shared class inbox
	Saturated  bool   `json:"saturated"`   // inbox dropped frames since the last tick
}

// Health is the gateway's health snapshot, in the form the "gateway"
// health source shows it.
type Health struct {
	Name      string                  `json:"name"`
	Conns     int                     `json:"conns"`
	Presence  int                     `json:"presence_leases"`
	Patterns  int                     `json:"patterns"`
	Throttled int                     `json:"throttled_clients"`
	RenewErrs uint64                  `json:"renew_errors"`
	PerClass  [NumClasses]ClassHealth `json:"per_class"`
}

// Degraded reports whether any lane is saturated: the shared inbox is
// dropping, so clients are losing frames before per-client accounting
// can even see them.
func (h Health) Degraded() bool {
	for _, ch := range h.PerClass {
		if ch.Saturated {
			return true
		}
	}
	return false
}

// Health builds the gateway's health snapshot.
func (m *Mux) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{Name: m.cfg.Name, Conns: len(m.clients), RenewErrs: m.renewErrs}
	for lane := 0; lane < NumClasses; lane++ {
		h.Patterns += len(m.refs[lane])
		h.PerClass[lane] = ClassHealth{
			Class:      topic.Class(lane).String(),
			InboxDrops: m.in[lane].Drops(),
			Saturated:  m.saturated[lane],
		}
	}
	for _, c := range m.clients {
		if c.key != "" {
			h.Presence++
		}
		if c.Throttled() {
			h.Throttled++
		}
		for lane := 0; lane < NumClasses; lane++ {
			queued, _ := c.q[lane].Depths(c.app)
			h.PerClass[lane].QueueDepth += queued
		}
	}
	return h
}

// Stats is the Mux's cumulative accounting (conservation checks).
type Stats struct {
	Received  uint64 // enveloped frames drained off the class inboxes
	Matched   uint64 // (frame, client) pairs matched by the index
	Unmatched uint64 // frames matching no client (pattern lease outliving clients)
	BadFrames uint64 // non-enveloped or unparseable inbox frames
	PubOK     uint64 // client publishes accepted upstream
	PubErrs   uint64 // client publishes refused
}

// Stats returns the cumulative counters.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// FramingLedger is the conservation law across the client framing
// boundary for one gateway, with every term named:
//
//	Matched == Delivered + Dropped + Throttled + Queued
//
// Every (frame, client) pair the pattern index matched is handed to
// the client's writer, lost to its bounded queue's overflow, lost
// while it was marked throttled, or still sitting in its queue.
type FramingLedger struct {
	Matched   uint64 // Stats.Matched
	Delivered uint64 // Σ deliver frames popped to a writer
	Dropped   uint64 // Σ overflow drops
	Throttled uint64 // Σ drops while throttled
	Queued    uint64 // Σ frames still queued
}

// FramingLaw reads the law's terms off m and clients — every client m
// ever matched a frame to (a detached client's ledgers stay readable;
// m.Clients() only lists the attached ones).
func FramingLaw(m *Mux, clients ...*Client) FramingLedger {
	l := FramingLedger{Matched: m.Stats().Matched}
	for _, c := range clients {
		d, dr, th := c.Ledgers()
		l.Delivered += d
		l.Dropped += dr
		l.Throttled += th
		l.Queued += uint64(c.Queued())
	}
	return l
}

// Err is nil when the law balances, and otherwise names every term.
func (l FramingLedger) Err() error {
	got := l.Delivered + l.Dropped + l.Throttled + l.Queued
	if l.Matched == got {
		return nil
	}
	return fmt.Errorf("framing conservation violated: matched %d != delivered %d + dropped %d + throttled %d + queued %d (= %d)",
		l.Matched, l.Delivered, l.Dropped, l.Throttled, l.Queued, got)
}

// InboxDrops returns one lane's shared-inbox drop count.
func (m *Mux) InboxDrops(lane int) uint64 { return m.in[lane].Drops() }

// Clients returns the attached clients (diagnostics, and FramingLaw's
// argument when nobody detached).
func (m *Mux) Clients() []*Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Client, 0, len(m.clients))
	for _, c := range m.clients {
		out = append(out, c)
	}
	return out
}
