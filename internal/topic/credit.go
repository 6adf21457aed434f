package topic

// Per-topic receive credit: the end-to-end backpressure loop between a
// topic's publishers and its subscribers, built on internal/flowctl's
// credit core (cumulative grant accounts, credit/hello codec). It is
// correct by construction: a subscriber never grants more frames than
// it has buffers posted for, the condition under which Brodsky et al.
// (PAPERS.md) show buffer allocation safe.
//
// The loop, end to end:
//
//  1. A credit-enabled Publisher owns a control-return inbox. On every
//     fanout-plan rebuild it sends a hello frame — marked with the
//     topic-control wire flag — to each subscriber it has not yet heard
//     from, announcing that inbox's address (FLIPC delivers no sender
//     identity, so the rendezvous travels in-band). Until a subscriber
//     first advertises, every publish to it is a Throttled skip.
//  2. Every credited data frame carries the same address as a 4-byte
//     prefix; a credit-enabled Subscriber strips it on receive and
//     counts each publisher's disposals.
//  3. The Subscriber answers a hello by advertising on a
//     control-priority endpoint (credit frames overtake bulk backlogs
//     at the engine's send scan): to each publisher its own cumulative
//     disposed count and the window granted past it. Their sum, the
//     publisher's granted right edge, is never lowered, and
//
//	Σ over publishers (edge_i − disposed_i) ≤ posted − ctlReserve
//
//     always holds: only free capacity is granted, one buffer at a time
//     to the publisher with the least outstanding (ties go to the next
//     publisher past the last one granted), so a newcomer's grant grows
//     as the older grants drain and every grant levels out at the fair
//     share — with more publishers than buffers, in turn.
//  4. The Publisher keeps one flowctl.Account per subscriber in its
//     fanout plan. A subscriber whose grant is spent is skipped and the
//     skip is counted in the Throttled ledger — a deliberate,
//     publisher-side deferral, distinct from Dropped (outbox
//     backpressure) and from the subscriber's endpoint discards.
//
// So once every publisher has completed the handshake, no application
// frame is dropped at a credited subscriber's endpoint (CreditLaw). The
// exception is the CreditStall escape hatch: frames lost between
// engines are never reported disposed, and a hello lost between engines
// is never answered, so after that many throttles with no progress the
// publisher forgives the frames (or re-sends the hello) and re-probes,
// and what a re-probe oversends may be dropped at the endpoint. A drop
// has no prefix to read, so the subscriber charges it to the publisher
// with the most credit outstanding: Σ disposed_i stays Received +
// AppDrops. A grant is never revoked: a publisher that stops sending
// keeps its share until it sends again or the subscriber rebinds.
//
// Credit is topic-wide, like the durable plane: every publisher and
// subscriber on a credited topic is credit-enabled, and a publisher is
// credited or durable, not both. Nothing enforces it at construction:
// an uncredited frame at a credit subscriber loses its first 4 bytes
// and is counted as stray, and a credited publisher only ever throttles
// a subscriber that never advertises; CreditLaw reports both.

import (
	"encoding/binary"
	"fmt"

	"flipc/internal/core"
	"flipc/internal/flowctl"
	"flipc/internal/msglib"
	"flipc/internal/wire"
)

// ctlFlag is the wire-flag bit marking topic-plane control frames
// (hello and credit). It is wire.FlagCtl, reserved by this package:
// PublishFlags masks it from application flags, every Subscriber
// filters frames carrying it out of the application stream
// (credit-unaware subscribers simply swallow them), and batching
// transports flush frames carrying it past any pending cork.
const ctlFlag uint8 = wire.FlagCtl

// ctlReserve is how many of a credit subscriber's posted buffers it
// never grants: room for hellos, the only control frames that land in
// its inbox. A publisher sends an unanswered subscriber one hello per
// plan generation (a refused send is retried, a CreditStall re-probe
// re-sends), so the reserve holds two joins while the subscriber is
// stalled — two publishers, or one across a membership change. More
// joins than that in one stall may take granted buffers.
const ctlReserve = 2

// creditPrefixBytes is the publisher-address prefix on every credited
// data frame.
const creditPrefixBytes = 4

// subCredit is the publisher's credit state for one subscriber that
// has advertised, keyed by subscriber address (an address embeds the
// endpoint generation, so a re-allocated subscriber endpoint starts a
// fresh account).
type subCredit struct {
	acct  flowctl.Account
	stall int // consecutive throttles with no ack progress
}

// pubGrant is a credit subscriber's ledger for one publisher learned
// from a hello.
type pubGrant struct {
	addr     core.Addr // the publisher's control-return address: its frames' prefix
	disposed uint64    // its frames consumed, plus endpoint drops charged to it
	edge     uint64    // granted right edge: never lowered, never below disposed
}

// subCreditState is the subscriber half: the control-priority return
// channel and the grant of every publisher learned from hellos, in
// hello order.
type subCreditState struct {
	out       *msglib.Outbox
	pubs      []*pubGrant
	grantable int // posted buffers less ctlReserve
	// batch is how many consumed frames accumulate before credits are
	// returned: a quarter of the grantable buffers, at least 1. A
	// publisher whose whole grant is consumed is answered at once, so
	// no batch can stall the loop.
	batch   int
	owed    int
	charged uint64 // endpoint application drops already charged
	turn    int    // where the next grant's tie-break scan starts
	stray   uint64 // data frames whose prefix names no known publisher
}

// creditOutboxBufs sizes the subscriber's credit-return outbox: credit
// frames are tiny and cumulative, so a handful of in-flight buffers is
// plenty — a send that finds none simply retries on the next trigger.
const creditOutboxBufs = 8

func newSubCreditState(d *core.Domain, bufs int) (*subCreditState, error) {
	grantable := bufs - ctlReserve
	if grantable < 1 {
		return nil, fmt.Errorf("topic: a credit subscriber needs more than %d buffers, got %d", ctlReserve, bufs)
	}
	out, err := msglib.NewOutboxPrio(d, 0, creditOutboxBufs, Control.EndpointPriority())
	if err != nil {
		return nil, err
	}
	return &subCreditState{out: out, grantable: grantable, batch: max(grantable/4, 1)}, nil
}

// handleCtl processes one topic-control frame from the subscriber's
// inbox. Hello frames register the publisher's control-return address
// — triggering an immediate credit advertisement or durable resume
// request (completing the respective handshake); replay done markers
// feed the durable seam; anything else is swallowed — control frames
// never reach the application.
func (s *Subscriber) handleCtl(payload []byte) {
	s.ctlRecv.Add(1)
	if s.dur != nil && len(payload) > 0 {
		switch payload[0] {
		case doneMagic:
			if start, head, ok := decodeDone(payload); ok {
				s.handleDone(start, head)
			}
			return
		case grantMagic:
			if cursor, ok := decodeGrant(payload); ok {
				s.handleGrant(cursor)
			}
			return
		}
	}
	addr, ok := flowctl.DecodeHello(payload)
	if !ok || !addr.Valid() {
		return
	}
	if c := s.credit; c != nil {
		if c.lookup(addr) == nil {
			c.pubs = append(c.pubs, &pubGrant{addr: addr})
		}
		s.sendCredit()
	}
	if d := s.dur; d != nil {
		if _, known := d.pubs[addr]; !known {
			d.pubs[addr] = struct{}{}
			s.sendResume()
		} else if !d.locked.Load() || d.needResume {
			s.sendResume()
		}
	}
}

// lookup returns the grant of the publisher at addr, or nil.
func (c *subCreditState) lookup(addr core.Addr) *pubGrant {
	for _, g := range c.pubs {
		if g.addr == addr {
			return g
		}
	}
	return nil
}

// charge counts one disposal against g or, when g is nil (an endpoint
// drop, which has no prefix to read), against the publisher with the
// most credit outstanding. A disposal past the edge (a stall re-probe
// oversent) pulls the edge along, so a grant never goes negative.
func (c *subCreditState) charge(g *pubGrant) {
	if g == nil {
		for _, h := range c.pubs {
			if g == nil || h.edge-h.disposed > g.edge-g.disposed {
				g = h
			}
		}
	}
	if g != nil {
		g.disposed++
		g.edge = max(g.edge, g.disposed)
	}
}

// outstanding returns Σ (edge_i − disposed_i): every frame the
// subscriber's publishers may still have in flight or queued at it.
func (c *subCreditState) outstanding() int {
	n := 0
	for _, g := range c.pubs {
		n += int(g.edge - g.disposed)
	}
	return n
}

// creditAccept strips a credited data frame's publisher prefix, charges
// the disposal to that publisher (a frame whose prefix names no known
// publisher is counted stray instead), and returns credits when the batch
// fills — or at once, when that publisher's whole grant is consumed and
// it could send nothing more until the next advert.
func (s *Subscriber) creditAccept(payload []byte) []byte {
	c := s.credit
	var g *pubGrant
	if len(payload) >= creditPrefixBytes {
		g = c.lookup(core.Addr(binary.BigEndian.Uint32(payload)))
		payload = payload[creditPrefixBytes:]
	}
	if g == nil {
		// No credited publisher sent this: charging it to one would
		// grant that publisher a buffer it never freed.
		c.stray++
		return payload
	}
	c.charge(g)
	c.owed++
	if c.owed >= c.batch || g.edge == g.disposed {
		s.sendCredit()
	}
	return payload
}

// sendCredit charges the endpoint's new application drops, grants the
// free buffers within the rule, and advertises to each publisher its
// own cumulative disposed count and window. Cumulative framing
// makes failure cheap: a frame that cannot be sent (or is lost in
// flight) is subsumed by the next one, so the owed trigger is only
// cleared when every publisher was reached.
func (s *Subscriber) sendCredit() {
	c := s.credit
	if c == nil || len(c.pubs) == 0 {
		return
	}
	for drops := s.AppDrops(); c.charged < drops; c.charged++ {
		c.charge(nil)
	}
	// Each free buffer goes to the publisher with the least outstanding;
	// the scan starts past the last one granted, so ties rotate and no
	// publisher waits behind another's top-ups for good.
	np := len(c.pubs)
	for free := c.grantable - c.outstanding(); free > 0; free-- {
		least := c.turn % np
		for k := 1; k < np; k++ {
			i := (c.turn + k) % np
			if g, l := c.pubs[i], c.pubs[least]; g.edge-g.disposed < l.edge-l.disposed {
				least = i
			}
		}
		c.pubs[least].edge++
		c.turn = least + 1
	}
	var buf [flowctl.CreditFrameBytes]byte
	sentAll := true
	for _, g := range c.pubs {
		n := flowctl.EncodeCredit(buf[:], s.in.Addr(), uint16(g.edge-g.disposed), g.disposed)
		if err := c.out.SendFlags(g.addr, buf[:n], ctlFlag); err != nil {
			sentAll = false
		}
	}
	if sentAll {
		c.owed = 0
	}
}

// CreditWindow returns the receive window the subscriber divides among
// its publishers — its posted buffers less ctlReserve — or 0 for a
// credit-disabled subscriber.
func (s *Subscriber) CreditWindow() int {
	if s.credit == nil {
		return 0
	}
	return s.credit.grantable
}

// CtlReceived returns the number of topic-control frames (hellos)
// filtered out of the application stream. Safe from any goroutine.
func (s *Subscriber) CtlReceived() uint64 { return s.ctlRecv.Load() }
