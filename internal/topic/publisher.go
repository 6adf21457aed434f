package topic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/flowctl"
	"flipc/internal/metrics"
	"flipc/internal/msglib"
	"flipc/internal/wire"
)

// PublisherConfig tunes a Publisher.
type PublisherConfig struct {
	// Topic is the topic name (required).
	Topic string
	// Class is the topic's priority class; the publisher's send
	// endpoint and the wire flags derive their priority from it. The
	// directory attribute is declared by subscribers when they join.
	Class Class
	// Depth is the send endpoint queue depth (0 = domain default).
	Depth int
	// Window bounds outstanding fanout frames — the topic's send-side
	// credit, drawn down by sends and replenished as the engine
	// completes them. Size it with PublisherWindow. Default 64.
	Window int
	// RefreshEvery is how many publishes may reuse the cached fanout
	// plan before the directory is probed for a membership change
	// (default 64; 1 probes every publish). Refresh can force it.
	RefreshEvery int

	// Credit enables per-subscriber receive credit (see credit.go):
	// each subscriber grants the publisher a share of its posted
	// buffers, and a subscriber whose grant is spent is skipped and
	// counted in the Throttled ledger instead of overrun. Credit is
	// topic-wide: subscribers must be credit-enabled
	// (NewSubscriberCredit) — one that never advertises is never sent
	// to — and each data frame carries a 4-byte publisher prefix, so a
	// payload may use MaxPayload − 4 bytes. Exclusive with Log.
	Credit bool
	// CreditBuffers sizes the credit-return inbox pool (default 64).
	CreditBuffers int
	// CreditStall is the escape hatch against a lost feedback channel:
	// after this many consecutive throttled publishes to one
	// subscriber with no ack progress, its account is forgiven and the
	// window re-probed — or, if it never answered, the hello is re-sent
	// (drops, if the subscriber is genuinely saturated, are counted at
	// its endpoint as usual). 0 disables; default 0.
	CreditStall int

	// Log enables the durable tap (see durable.go): every published
	// payload is appended to this per-topic duralog before fanout,
	// live frames carry an 8-byte sequence prefix, and subscribers
	// resume from per-name cursors through the replay protocol.
	// Subscribers on the topic must be durable (NewSubscriberDurable);
	// the Durable class attribute is merged into Class automatically.
	Log *duralog.Log
}

// PublishResult accounts one fanout.
type PublishResult struct {
	// Sent counts subscribers whose frame was queued to the engine.
	Sent int
	// Dropped counts subscribers that missed this message to publisher
	// backpressure (window exhausted); each is charged to that
	// subscriber's drop account. Receiver-side discards are counted
	// separately at the subscriber's endpoint.
	Dropped int
	// Throttled counts subscribers deliberately skipped because their
	// advertised receive credit was exhausted — deferral by feedback,
	// not loss: the subscriber's inbox was never burned and the
	// publisher spent no engine work on the frame.
	Throttled int
	// Deferred counts subscribers skipped because they are mid-replay
	// on a durable topic: the frame was journaled inside their
	// catch-up range, so they receive it as replay instead of live.
	// Deferral, never loss.
	Deferred int
}

// Publisher fans messages out to a topic's subscribers. The publish
// path is single-threaded, like the outbox it wraps; Evict, Refresh,
// and every accessor are safe to call from other goroutines (the
// quarantine housekeeping loop and metrics scrapers do).
type Publisher struct {
	d   *core.Domain
	dir Directory
	cfg PublisherConfig
	out *msglib.Outbox

	// mu guards the plan, the ledgers, and the credit state against
	// Evict/Refresh/accessor callers racing the publish path.
	mu           sync.Mutex
	plan         []core.Addr // fanout order: address-sorted = grouped by node
	patPlan      []core.Addr // pattern-plane subscribers (enveloped delivery)
	planGen      uint32
	sinceRefresh int
	envScratch   []byte // envelope staging buffer (pattern fanout)

	published uint64 // Publish calls that fanned out (plan non-empty)
	sent      uint64 // per-subscriber frames queued
	dropped   uint64 // per-subscriber frames lost to backpressure
	throttled uint64 // per-subscriber sends skipped on exhausted credit
	drops     map[core.Addr]uint64
	throttles map[core.Addr]uint64

	creditIn *msglib.Inbox            // topic-control return inbox (credit or durable mode)
	heard    map[core.Addr]*subCredit // subscribers that answered a hello; credit account, nil if durable
	hellos   map[core.Addr]int        // credit mode: unanswered subscribers helloed this plan generation, and throttles since
	resyncs  uint64                   // stall re-probes: accounts forgiven, hellos re-sent
	scratch  []byte                   // prefix staging buffer (credit address or durable sequence)

	// Durable plane (cfg.Log set; see durable.go).
	log            *duralog.Log
	replayOut      *msglib.Outbox           // Bulk-priority replay channel
	replay         map[string]*subReplay    // replay state by subscriber name
	catchup        map[core.Addr]*subReplay // live-fanout suppression index
	helloOwed      bool                     // a hello was refused (backpressure); retried on every pump and publish
	deferred       uint64                   // live sends suppressed during catch-up
	replayed       uint64                   // replay frames sent
	replayStranded uint64                   // frames lost to the retention horizon

	// nowNanos is the fanout-latency clock (replaceable in tests).
	nowNanos func() int64

	mPublished, mSent, mDropped, mThrottled *metrics.Counter
	mDeferred, mReplayed                    *metrics.Counter
	mSubs                                   *metrics.Gauge
	mFanoutNs                               *metrics.Histogram
}

// NewPublisher creates a publisher for cfg.Topic, declares the topic's
// class in the directory, and builds the initial fanout plan.
func NewPublisher(d *core.Domain, dir Directory, cfg PublisherConfig) (*Publisher, error) {
	if cfg.Topic == "" {
		return nil, fmt.Errorf("topic: publisher needs a topic name")
	}
	if !cfg.Class.Valid() {
		return nil, fmt.Errorf("topic: invalid class %d", cfg.Class)
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = 64
	}
	if cfg.CreditBuffers <= 0 {
		cfg.CreditBuffers = 64
	}
	if cfg.Credit && cfg.Log != nil {
		// Each prefixes its data frames; a subscriber reads one prefix.
		return nil, fmt.Errorf("topic: a publisher is credited or durable, not both")
	}
	if cfg.Log != nil {
		// Durable publishers declare the attribute so every party on
		// the topic agrees on the class byte.
		cfg.Class |= Durable
	}
	out, err := msglib.NewOutboxPrio(d, cfg.Depth, cfg.Window, cfg.Class.EndpointPriority())
	if err != nil {
		return nil, err
	}
	p := &Publisher{
		d: d, dir: dir, cfg: cfg, out: out,
		drops:     make(map[core.Addr]uint64),
		throttles: make(map[core.Addr]uint64),
		nowNanos:  func() int64 { return time.Now().UnixNano() },
	}
	if cfg.Credit || cfg.Log != nil {
		// The control-return inbox: credit advertisements, resume
		// requests, and cursor acks all land here, dispatched by magic
		// byte. The inbox endpoint queue must hold every posted buffer.
		depth := 2
		for depth < cfg.CreditBuffers+1 {
			depth *= 2
		}
		in, err := msglib.NewInbox(d, depth, cfg.CreditBuffers)
		if err != nil {
			return nil, fmt.Errorf("topic: control inbox: %w", err)
		}
		p.creditIn = in
		p.heard = make(map[core.Addr]*subCredit)
		if cfg.Credit {
			p.hellos = make(map[core.Addr]int)
		}
	}
	if cfg.Log != nil {
		p.log = cfg.Log
		rout, err := msglib.NewOutboxPrio(d, cfg.Depth, cfg.Window, Bulk.EndpointPriority())
		if err != nil {
			return nil, fmt.Errorf("topic: replay outbox: %w", err)
		}
		p.replayOut = rout
		p.replay = make(map[string]*subReplay)
		p.catchup = make(map[core.Addr]*subReplay)
	}
	if err := p.Refresh(); err != nil {
		return nil, err
	}
	return p, nil
}

// Instrument registers the publisher's per-topic instruments with reg.
// The publisher is their single writer, so updates stay wait-free.
func (p *Publisher) Instrument(reg *metrics.Registry) {
	tp := p.cfg.Topic
	p.mPublished = reg.Counter(metrics.Name("flipc_topic_published_total", "topic", tp))
	p.mSent = reg.Counter(metrics.Name("flipc_topic_fanout_sent_total", "topic", tp))
	p.mDropped = reg.Counter(metrics.Name("flipc_topic_fanout_dropped_total", "topic", tp))
	p.mThrottled = reg.Counter(metrics.Name("flipc_topic_fanout_throttled_total", "topic", tp))
	if p.log != nil {
		p.mDeferred = reg.Counter(metrics.Name("flipc_topic_fanout_deferred_total", "topic", tp))
		p.mReplayed = reg.Counter(metrics.Name("flipc_topic_replayed_total", "topic", tp))
	}
	p.mSubs = reg.Gauge(metrics.Name("flipc_topic_subscribers", "topic", tp))
	p.mFanoutNs = reg.Histogram(metrics.Name("flipc_topic_fanout_ns", "topic", tp))
	p.mu.Lock()
	p.mSubs.Set(float64(len(p.plan)))
	p.mu.Unlock()
}

// Refresh rebuilds the fanout plan from the directory unconditionally.
func (p *Publisher) Refresh() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshLocked()
}

func (p *Publisher) refreshLocked() error {
	snap, err := Snapshot(p.dir, p.cfg.Topic)
	if err != nil {
		return err
	}
	p.sinceRefresh = 0
	if snap.Gen == p.planGen && p.plan != nil {
		p.helloLocked()
		return nil
	}
	// Snapshot order is address-sorted, which groups subscribers by
	// node: consecutive sends to one peer coalesce under a batching
	// transport (one write per peer per engine pass).
	p.plan = snap.Addrs()
	p.planGen = snap.Gen
	// Pattern-plane subscribers fan out after the exact plan, with the
	// topic name enveloped into each frame (see envelope.go). The
	// registry already deduplicates them against the exact set, but a
	// paged remote snapshot can race a membership change, so guard
	// again: an address must never receive both a bare and an enveloped
	// copy of one publish.
	p.patPlan = p.patPlan[:0]
	if len(snap.Pats) > 0 {
		exact := make(map[core.Addr]bool, len(p.plan))
		for _, a := range p.plan {
			exact[a] = true
		}
		for _, sub := range snap.Pats {
			if !exact[sub.Addr] {
				p.patPlan = append(p.patPlan, sub.Addr)
			}
		}
	}
	if p.mSubs != nil {
		p.mSubs.Set(float64(len(p.plan) + len(p.patPlan)))
	}
	if p.heard != nil {
		// Keep handshake state only for planned subscribers; a departed
		// address (or a re-allocated endpoint generation) starts over.
		planned := make(map[core.Addr]bool, len(p.plan))
		for _, a := range p.plan {
			planned[a] = true
		}
		for a := range p.heard {
			if !planned[a] {
				delete(p.heard, a)
			}
		}
	}
	clear(p.hellos) // a new generation: one more hello to each unanswered subscriber
	p.helloLocked()
	return nil
}

// helloLocked sends a hello to every planned subscriber the publisher
// has not yet heard from, (re)announcing the control-return address.
// Idempotent and cheap: the handshake completes on the first credit
// advertisement (credit mode) or the first resume/ack (durable mode),
// after which a subscriber gets no further hellos. A credited publisher
// sends each unanswered subscriber one hello per plan generation: a
// hello waiting in a stalled subscriber's inbox holds one of its
// ctlReserve buffers, and a repeat would take a granted one. Caller
// holds p.mu.
//
// A hello the outbox refuses is remembered in p.helloOwed, and
// PumpReplay and the publish path call back here while any is owed: a
// subscriber admitted behind a backlogged outbox would otherwise wait
// RefreshEvery publishes — forever, on an idle topic — to learn the
// control-return address its resume goes to.
func (p *Publisher) helloLocked() {
	if p.creditIn == nil {
		return
	}
	p.helloOwed = false
	var buf [flowctl.HelloFrameBytes]byte
	n := flowctl.EncodeHello(buf[:], p.creditIn.Addr())
	flags := ctlFlag | p.cfg.Class.Flags()
	for _, dst := range p.plan {
		_, heard := p.heard[dst]
		if _, sent := p.hellos[dst]; heard || sent {
			continue
		}
		switch err := p.out.SendFlags(dst, buf[:n], flags); {
		case err == nil && p.hellos != nil:
			p.hellos[dst] = 0
		case errors.Is(err, msglib.ErrBackpressure):
			p.helloOwed = true
		}
	}
}

// harvestLocked drains the control-return inbox: credit
// advertisements feed the per-subscriber accounts, durable resume and
// ack frames feed the replay engine (dispatched by magic byte).
// Caller holds p.mu.
func (p *Publisher) harvestLocked() {
	if p.creditIn == nil {
		return
	}
	for {
		payload, _, ok := p.creditIn.Receive()
		if !ok {
			return
		}
		if p.handleDurCtlLocked(payload) {
			continue
		}
		from, window, disposed, ok := flowctl.DecodeCredit(payload)
		if !ok {
			continue
		}
		cs := p.heard[from]
		if cs == nil {
			// The first advert completes the handshake. A subscriber
			// not in the plan (evicted, or a frame still in flight from
			// before it left) gets no account, so the map stays bounded
			// by the plan.
			if !slices.Contains(p.plan, from) {
				continue
			}
			cs = &subCredit{}
			p.heard[from] = cs
		}
		if cs.acct.Grant(disposed, window) {
			cs.stall = 0
		}
	}
}

// throttleLocked decides whether the credited subscriber dst must be
// skipped this fanout — it has not advertised yet (cs nil), or its
// grant is spent — handling stall resync. Caller holds p.mu.
func (p *Publisher) throttleLocked(dst core.Addr, cs *subCredit) bool {
	if cs == nil {
		if n, ok := p.hellos[dst]; ok && p.cfg.CreditStall > 0 {
			// Unanswered: after CreditStall throttles the hello is taken
			// for lost and re-sent, a re-probe like Resync.
			p.hellos[dst] = n + 1
			if n+1 >= p.cfg.CreditStall {
				delete(p.hellos, dst)
				p.helloOwed = true
				p.resyncs++
			}
		}
		return true
	}
	if cs.acct.Available() > 0 {
		return false
	}
	if p.cfg.CreditStall > 0 {
		cs.stall++
		if cs.stall >= p.cfg.CreditStall {
			cs.acct.Resync()
			cs.stall = 0
			p.resyncs++
			return false // re-probe: send into the forgiven window
		}
	}
	return true
}

// refreshIfStaleLocked probes the directory every RefreshEvery
// publishes. Caller holds p.mu.
func (p *Publisher) refreshIfStaleLocked() error {
	p.sinceRefresh++
	if p.sinceRefresh < p.cfg.RefreshEvery {
		return nil
	}
	return p.refreshLocked()
}

// Publish fans payload out to every subscriber in the cached plan. It
// never blocks: a subscriber whose frame cannot be queued (window
// exhausted) loses this message, and the loss is counted against that
// subscriber; a subscriber whose receive credit is exhausted is
// skipped, and the skip is counted in its throttle account. Publishing
// to a topic with no subscribers succeeds with an empty result.
func (p *Publisher) Publish(payload []byte) (PublishResult, error) {
	return p.PublishFlags(payload, 0)
}

// PublishFlags is Publish with application flag bits (the class's
// priority bits are merged in; the topic-control bit and wire-internal
// bits are reserved and masked).
func (p *Publisher) PublishFlags(payload []byte, flags uint8) (PublishResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.refreshIfStaleLocked(); err != nil {
		return PublishResult{}, err
	}
	p.harvestLocked()
	if p.helloOwed {
		p.helloLocked()
	}
	var res PublishResult
	if len(p.plan) == 0 && len(p.patPlan) == 0 && p.log == nil {
		return res, nil
	}
	var start int64
	if p.mFanoutNs != nil { // the fanout clock is read only for the histogram
		start = p.nowNanos()
	}
	orig := payload // pre-staging bytes: what pattern subscribers get
	// Reserved bits really are masked: the topic-control bit, the
	// replay marker, the priority field (the class owns it — caller
	// bits would forge the frame's class at the engine, wire, and
	// rtsched layers), and the wire-internal trailer flags.
	flags = (flags &^ (ctlFlag | replayFlag | wire.PriorityMask | wire.FlagStamped | wire.FlagChecksummed)) | p.cfg.Class.Flags()
	var dseq uint64
	if p.log != nil {
		// The durable tap: journal before fanout — a frame is never on
		// the wire without being replayable — then prefix the live
		// frame with its log sequence. An append failure fails the
		// publish: an unjournaled durable send would be silent loss in
		// disguise.
		if len(payload)+8 > p.out.MaxPayload() {
			return res, fmt.Errorf("topic: durable payload %d exceeds frame budget %d", len(payload), p.out.MaxPayload()-8)
		}
		seq, err := p.log.Append(flags, payload)
		if err != nil {
			return res, fmt.Errorf("topic: durable append: %w", err)
		}
		dseq = seq
		payload = p.stageSeq(seq, payload)
	}
	if p.cfg.Credit {
		// Attribution: each subscriber counts its disposals per
		// publisher by the address the hello announced.
		if len(payload)+creditPrefixBytes > p.out.MaxPayload() {
			return res, fmt.Errorf("topic: credited payload %d exceeds frame budget %d", len(payload), p.out.MaxPayload()-creditPrefixBytes)
		}
		staged := p.stage(creditPrefixBytes, payload)
		binary.BigEndian.PutUint32(staged, uint32(p.creditIn.Addr()))
		payload = staged
	}
	for _, dst := range p.plan {
		if p.catchup != nil {
			if sr := p.catchup[dst]; sr != nil && !sr.done {
				// Mid-replay: the frame just journaled is inside this
				// subscriber's catch-up range; a live copy would only
				// race the seam. It arrives as replay instead.
				res.Deferred++
				continue
			}
		}
		var cs *subCredit
		if p.cfg.Credit {
			cs = p.heard[dst]
			if p.throttleLocked(dst, cs) {
				p.throttles[dst]++
				res.Throttled++
				continue
			}
		}
		err := p.out.SendFlags(dst, payload, flags)
		if err == nil {
			res.Sent++
			if cs != nil {
				cs.acct.Spend()
			}
			continue
		}
		if errors.Is(err, msglib.ErrBackpressure) {
			if p.catchup != nil {
				if sr := p.catchup[dst]; sr != nil {
					// Durable subscriber: the frame is journaled, so a
					// send the window couldn't take re-enters catch-up
					// at this sequence and arrives as replay instead.
					// Deferral, not loss. The heal round rides the live
					// outbox (sr.hot): its frames stay FIFO with the
					// live stream they repair, so the subscriber's seam
					// never sees the heal and the live tail reorder.
					sr.next = dseq
					sr.done = false
					sr.hot = true
					res.Deferred++
					continue
				}
			}
			// Optimistic drop: this subscriber misses the message;
			// charge its account and keep fanning out.
			p.drops[dst]++
			res.Dropped++
			continue
		}
		return res, err
	}
	if len(p.patPlan) > 0 {
		if err := p.publishPatternsLocked(orig, flags, &res); err != nil {
			return res, err
		}
	}
	p.published++
	p.sent += uint64(res.Sent)
	p.dropped += uint64(res.Dropped)
	p.throttled += uint64(res.Throttled)
	p.deferred += uint64(res.Deferred)
	if p.log != nil {
		// Drive catch-up on the publish cadence: a burst of replay
		// rides under each live fanout until every resumed subscriber
		// reaches the head.
		p.pumpReplayLocked(replayBurst)
	}
	if p.mPublished != nil {
		p.mPublished.Inc()
		p.mSent.Add(uint64(res.Sent))
		p.mDropped.Add(uint64(res.Dropped))
		p.mThrottled.Add(uint64(res.Throttled))
		if p.mDeferred != nil {
			p.mDeferred.Add(uint64(res.Deferred))
		}
		if d := p.nowNanos() - start; d >= 0 {
			p.mFanoutNs.Observe(uint64(d))
		}
	}
	return res, nil
}

// stage copies payload behind an n-byte prefix, left for the caller to
// fill, in the publisher's staging buffer (the engine copies on send,
// so the buffer is reusable across the fanout).
func (p *Publisher) stage(n int, payload []byte) []byte {
	need := n + len(payload)
	if cap(p.scratch) < need {
		p.scratch = make([]byte, need)
	}
	b := p.scratch[:need]
	copy(b[n:], payload)
	return b
}

// publishPatternsLocked fans payload out to the pattern-plane
// subscribers, topic name enveloped into each frame. Pattern
// subscribers are shared per-class gateway endpoints, deliberately
// outside the per-subscriber machinery of the exact plan: no credit
// accounts (the gateway applies its own per-client backpressure behind
// the shared endpoint), no durable replay (the envelope wraps the
// pre-sequence payload), no hello handshake. Losses still always
// count: a backpressured send is charged to the subscriber's drop
// account like any optimistic drop, and a payload the envelope cannot
// fit drops for every pattern subscriber. Caller holds p.mu.
func (p *Publisher) publishPatternsLocked(payload []byte, flags uint8, res *PublishResult) error {
	need := envelopeOverhead(p.cfg.Topic) + len(payload)
	if need > p.out.MaxPayload() {
		for _, dst := range p.patPlan {
			p.drops[dst]++
			res.Dropped++
		}
		return nil
	}
	if cap(p.envScratch) < need {
		p.envScratch = make([]byte, 0, need)
	}
	env := AppendEnvelope(p.envScratch[:0], p.cfg.Topic, payload)
	// Durable attributes must not leak into the envelope path: pattern
	// subscribers never resume, so the replay marker stays clear.
	flags &^= replayFlag
	for _, dst := range p.patPlan {
		err := p.out.SendFlags(dst, env, flags)
		if err == nil {
			res.Sent++
			continue
		}
		if errors.Is(err, msglib.ErrBackpressure) {
			p.drops[dst]++
			res.Dropped++
			continue
		}
		return err
	}
	return nil
}

// CreditAdverts harvests the credit inbox and returns how many planned
// subscribers have completed the credit handshake (sent at least one
// advertisement). Zero for a credit-disabled publisher.
func (p *Publisher) CreditAdverts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.harvestLocked()
	n := 0
	for _, dst := range p.plan {
		if p.heard[dst] != nil {
			n++
		}
	}
	return n
}

// CreditAvailable returns the publisher's view of one subscriber's
// available credit and granted window (harvesting first). ok is false
// if the subscriber has no live account.
func (p *Publisher) CreditAvailable(addr core.Addr) (avail, window int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.harvestLocked()
	cs := p.heard[addr]
	if cs == nil {
		return 0, 0, false
	}
	return cs.acct.Available(), cs.acct.Window(), true
}

// Subscribers returns the cached plan size, exact plus pattern.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.plan) + len(p.patPlan)
}

// PatternSubscribers returns the pattern-plane portion of the plan.
func (p *Publisher) PatternSubscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.patPlan)
}

// PlanGen returns the membership generation the plan was built from.
func (p *Publisher) PlanGen() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.planGen
}

// Published returns the number of fanouts performed.
func (p *Publisher) Published() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published
}

// Sent returns the total per-subscriber frames queued.
func (p *Publisher) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Dropped returns the total per-subscriber frames lost to publisher
// backpressure.
func (p *Publisher) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Throttled returns the total per-subscriber sends skipped on
// exhausted receive credit. Unlike Dropped, nothing was lost: the
// publisher deferred instead of burning the subscriber's inbox.
func (p *Publisher) Throttled() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.throttled
}

// CreditResyncs returns how many stall re-probes forgave an account or
// re-sent a hello (see PublisherConfig.CreditStall).
func (p *Publisher) CreditResyncs() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resyncs
}

// Drops returns a copy of the per-subscriber drop accounts.
func (p *Publisher) Drops() map[core.Addr]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.drops)
}

// Throttles returns a copy of the per-subscriber throttle accounts.
func (p *Publisher) Throttles() map[core.Addr]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.throttles)
}

// FanoutLedger is the fanout conservation law for one publisher and
// the subscribers its plan served, with every term named:
//
//	Owed == Delivered + RecvDropped + PubDropped + Throttled
//
// Each publish owes every subscriber one frame, and each owed frame
// ends in exactly one ledger: consumed by the subscriber, discarded at
// its endpoint for lack of a posted buffer, refused by the publisher's
// outbox window, or deliberately skipped on exhausted receive credit.
// The law holds at quiesce (nothing in flight); a caller waiting for
// quiesce polls Err until it clears.
type FanoutLedger struct {
	Published   uint64 // fanouts performed (Publisher.Published)
	Owed        uint64 // Published × subscribers
	Delivered   uint64 // Σ Subscriber.Received
	RecvDropped uint64 // Σ Subscriber.AppDrops
	PubDropped  uint64 // Publisher.Dropped
	Throttled   uint64 // Publisher.Throttled
}

// FanoutLaw reads the law's terms off p and the subscribers it fanned out
// to. Owed assumes every subscriber was planned for every publish; a
// caller whose subscriber joined late subtracts the publishes it was
// never owed before checking.
func FanoutLaw(p *Publisher, subs ...*Subscriber) FanoutLedger {
	l := FanoutLedger{Published: p.Published(), PubDropped: p.Dropped(), Throttled: p.Throttled()}
	l.Owed = l.Published * uint64(len(subs))
	for _, s := range subs {
		l.Delivered += s.Received()
		l.RecvDropped += s.AppDrops()
	}
	return l
}

// Accounted is the right-hand side of the law.
func (l FanoutLedger) Accounted() uint64 {
	return l.Delivered + l.RecvDropped + l.PubDropped + l.Throttled
}

// Err is nil when the law balances, and otherwise names every term.
func (l FanoutLedger) Err() error {
	if l.Accounted() == l.Owed {
		return nil
	}
	return fmt.Errorf("fanout conservation violated: owed %d (published %d) != delivered %d + recv-dropped %d + pub-dropped %d + throttled %d (= %d)",
		l.Owed, l.Published, l.Delivered, l.RecvDropped, l.PubDropped, l.Throttled, l.Accounted())
}

// CreditLaw is the credit invariant for one credited subscriber and the
// publishers on its topic: once every publisher has completed the
// handshake with s and none has stall-resynced, the grants s has
// outstanding fit its posted buffers less ctlReserve, so no application
// frame is dropped at its endpoint. It also fails when s has received a
// frame that no credited publisher sent. Call it from s's receive
// goroutine.
func CreditLaw(s *Subscriber, pubs ...*Publisher) error {
	c := s.credit
	if c == nil {
		return fmt.Errorf("credit law does not apply: the subscriber is not credit-enabled")
	}
	if c.stray != 0 {
		return fmt.Errorf("credit law violated: %d frames carried no known publisher prefix (an uncredited publisher on the topic?)", c.stray)
	}
	for i, p := range pubs {
		if _, _, ok := p.CreditAvailable(s.Addr()); !ok || p.CreditResyncs() != 0 {
			return fmt.Errorf("credit law does not apply: publisher %d handshaken %v, stall resyncs %d", i, ok, p.CreditResyncs())
		}
	}
	if drops, out := s.AppDrops(), c.outstanding(); drops != 0 || out > c.grantable {
		return fmt.Errorf("credit law violated: app drops %d, outstanding grants %d of %d (posted %d less reserve %d)",
			drops, out, c.grantable, s.bufs, ctlReserve)
	}
	return nil
}

// Outbox exposes the wrapped outbox (flush, backpressure counters).
// The outbox is part of the single-threaded publish path; do not drive
// it concurrently with Publish.
func (p *Publisher) Outbox() *msglib.Outbox { return p.out }
