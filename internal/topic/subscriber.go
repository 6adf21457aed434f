package topic

import (
	"fmt"
	"sync/atomic"

	"flipc/internal/core"
	"flipc/internal/metrics"
	"flipc/internal/msglib"
)

// Subscriber is one endpoint's membership in a topic: a self-stocking
// inbox (the topic's private receive-side credit pool) plus the
// directory subscription that routes fanout to it.
//
// The subscription is a lease: call Renew on the registry's renewal
// cadence (idempotent, never invalidates publisher plans) or the
// registry sweep ages the subscription out — a crashed subscriber
// stops costing fanout work without any explicit leave.
//
// The receive path is single-threaded like the inbox it wraps; the
// counters (Received, Drops, CtlReceived, CreditWindow) are safe to
// read from other goroutines.
type Subscriber struct {
	d     *core.Domain
	dir   Directory
	topic string
	class Class
	depth int
	bufs  int
	in    *msglib.Inbox
	// subAddr is the address the directory currently maps to this
	// subscriber. It usually equals in.Addr(), but diverges when the
	// endpoint's generation moves (quarantine recovery re-allocates the
	// slot) — Renew reconciles the two so the lease never resurrects a
	// stale address.
	subAddr   core.Addr
	delivered atomic.Uint64 // application frames returned to the caller
	ctlRecv   atomic.Uint64 // topic-control frames filtered out
	credit    *subCreditState
	dur       *subDurState
}

// NewSubscriber creates an inbox with bufs posted buffers (size with
// SubscriberBuffers; endpoint depth 0 = domain default) and joins
// topic at the given class.
func NewSubscriber(d *core.Domain, dir Directory, topic string, class Class, depth, bufs int) (*Subscriber, error) {
	return newSubscriber(d, dir, topic, class, depth, bufs, nil, nil)
}

// NewSubscriberCredit is NewSubscriber with receive credit: the
// subscriber answers publisher hellos with grants that split its bufs
// posted buffers less ctlReserve among its publishers, never more (see
// credit.go for the loop). bufs must exceed ctlReserve.
func NewSubscriberCredit(d *core.Domain, dir Directory, topic string, class Class, depth, bufs int) (*Subscriber, error) {
	cr, err := newSubCreditState(d, bufs)
	if err != nil {
		return nil, err
	}
	return newSubscriber(d, dir, topic, class, depth, bufs, cr, nil)
}

// NewSubscriberDurable is NewSubscriber for a durable topic: name is
// the subscriber's stable cursor identity (1..255 bytes — survive it
// across restarts; addresses don't), the Durable class attribute is
// merged in, and the receive path runs the replay seam (see
// durable.go). The topic's publishers must be durable
// (PublisherConfig.Log); live and replayed frames are de-duplicated
// into an exactly-once, in-order stream.
func NewSubscriberDurable(d *core.Domain, dir Directory, topic string, class Class, depth, bufs int, name string) (*Subscriber, error) {
	ds, err := newSubDurState(d, name)
	if err != nil {
		return nil, err
	}
	return newSubscriber(d, dir, topic, class|Durable, depth, bufs, nil, ds)
}

func newSubscriber(d *core.Domain, dir Directory, topic string, class Class, depth, bufs int, cr *subCreditState, ds *subDurState) (*Subscriber, error) {
	if topic == "" {
		return nil, fmt.Errorf("topic: subscriber needs a topic name")
	}
	if !class.Valid() {
		return nil, fmt.Errorf("topic: invalid class %d", class)
	}
	in, err := msglib.NewInbox(d, depth, bufs)
	if err != nil {
		return nil, err
	}
	s := &Subscriber{
		d: d, dir: dir, topic: topic, class: class,
		depth: depth, bufs: bufs,
		in: in, subAddr: in.Addr(), credit: cr, dur: ds,
	}
	if err := Subscribe(dir, topic, in.Addr(), class); err != nil {
		return nil, err
	}
	return s, nil
}

// Topic returns the subscribed topic name.
func (s *Subscriber) Topic() string { return s.topic }

// Class returns the subscription's priority class.
func (s *Subscriber) Class() Class { return s.class }

// Addr returns the subscriber's receive address (the fanout target).
func (s *Subscriber) Addr() core.Addr { return s.in.Addr() }

// Renew refreshes the subscription lease (idempotent re-subscribe). It
// always re-reads the inbox's *current* address: if the endpoint's
// generation has moved since the last renewal (the slot was
// re-allocated, e.g. by quarantine recovery), renewing the address
// captured at subscribe time would resurrect a stale route — fanout to
// a generation the engine refuses. The stale address is unsubscribed
// first so the directory never carries both.
//
// For a credit-enabled subscriber, Renew also re-advertises every
// publisher's grant, healing any credit frames lost since the last
// renewal.
func (s *Subscriber) Renew() error {
	cur := s.in.Addr()
	if cur != s.subAddr {
		// Best effort: the sweep ages the stale lease out anyway.
		_ = Unsubscribe(s.dir, s.topic, s.subAddr)
		s.subAddr = cur
	}
	if err := Subscribe(s.dir, s.topic, cur, s.class); err != nil {
		return err
	}
	s.sendCredit()
	s.renewDurable()
	return nil
}

// Rebind replaces the subscriber's inbox with a freshly allocated one
// and renews the subscription at the new address — the recovery path
// when the old endpoint is unusable (quarantined). Pending messages on
// the old inbox are lost (counted at its endpoint, per the optimistic
// discipline); the old endpoint is freed so its slot can re-enter the
// pool.
func (s *Subscriber) Rebind() error {
	in, err := msglib.NewInbox(s.d, s.depth, s.bufs)
	if err != nil {
		return err
	}
	old := s.in
	s.in = in
	if c := s.credit; c != nil {
		// A fresh endpoint: its drop counter restarts, and every
		// publisher handshakes with the new address from zero.
		c.pubs, c.charged, c.owed = nil, 0, 0
	}
	if s.dur != nil {
		// The replay target moved: the next resume (sent by Renew just
		// below) re-registers the new address with every publisher and
		// re-replays anything lost with the old inbox.
		s.dur.needResume = true
	}
	if err := s.Renew(); err != nil {
		return err
	}
	old.Endpoint().Free()
	return nil
}

// Leave removes the subscription; in-flight fanout to this endpoint is
// discarded and counted there, like any send to an unposted receiver.
func (s *Subscriber) Leave() error {
	return Unsubscribe(s.dir, s.topic, s.subAddr)
}

// Receive returns the next application message if one is waiting; the
// payload is lent until the next receive, as msglib.Inbox.Receive's is.
// Topic-control frames (credit hellos, replay markers) are consumed
// internally and never surface. On a durable subscription the stream is
// exactly-once and in-order: the sequence prefix is stripped, duplicates
// and gaps are absorbed by the seam (see durable.go), and replayed
// messages are delivered with the replay flag bit still set.
func (s *Subscriber) Receive() (payload []byte, flags uint8, ok bool) {
	if s.dur != nil {
		// A hole the replay stream just filled may have unblocked a run
		// of stashed frames; drain them ahead of new arrivals.
		if payload, flags, ok = s.durStashPop(); ok {
			s.delivered.Add(1)
			return payload, flags, true
		}
	}
	for {
		if payload, flags, ok = s.in.Receive(); !ok {
			return nil, 0, false
		}
		if payload, ok = s.accept(payload, flags); ok {
			return payload, flags, true
		}
	}
}

// accept consumes a topic-control frame, or strips a data frame's
// credit prefix or runs it through the durable seam, reporting whether
// what is left is an application delivery.
func (s *Subscriber) accept(payload []byte, flags uint8) ([]byte, bool) {
	if flags&ctlFlag != 0 {
		s.handleCtl(payload)
		return nil, false
	}
	if s.credit != nil {
		payload = s.creditAccept(payload)
	} else if s.dur != nil {
		var ok bool
		if payload, ok = s.durAccept(payload, flags); !ok {
			return nil, false
		}
	}
	s.delivered.Add(1)
	return payload, true
}

// ReceiveBlock blocks for the next application message at the class's
// scheduler priority: a control-topic consumer preempts bulk consumers
// at the real-time semaphore. The payload is lent, as Receive's is.
func (s *Subscriber) ReceiveBlock() ([]byte, uint8, error) {
	if s.dur != nil {
		if payload, flags, ok := s.durStashPop(); ok {
			s.delivered.Add(1)
			return payload, flags, nil
		}
	}
	for {
		payload, flags, err := s.in.ReceiveBlock(s.class.SchedPriority())
		if err != nil {
			return nil, 0, err
		}
		if payload, ok := s.accept(payload, flags); ok {
			return payload, flags, nil
		}
	}
}

// Drops exposes the endpoint's discard counter — messages that arrived
// while no buffer was posted, the receive-side half of the topic's
// loss accounting. The count includes topic-control frames (publisher
// hellos, credit updates) that found no buffer, not just application
// payloads; use AppDrops / CtlDrops to split the two when closing a
// publisher-side conservation equation, since control frames are never
// charged to the publisher's ledgers.
func (s *Subscriber) Drops() uint64 { return s.in.Drops() }

// CtlDrops returns the control-frame share of Drops(): topic-control
// frames (ctlFlag set) discarded at this endpoint for lack of a posted
// buffer. Counted engine-side per generation, so the value resets when
// the subscriber rebinds to a fresh endpoint.
func (s *Subscriber) CtlDrops() uint64 {
	a := s.in.Addr()
	return s.d.Engine().EndpointCtlDrops(int(a.Index()), a.Gen())
}

// AppDrops returns the application-payload share of Drops() — the
// number that pairs with the publisher's Published/Dropped/Throttled
// ledgers in the topic conservation law.
func (s *Subscriber) AppDrops() uint64 {
	ctl := s.CtlDrops() // first: the engine counts a drop in Drops before CtlDrops
	return s.Drops() - ctl
}

// Received returns the number of application messages consumed
// (topic-control frames are excluded). Safe from any goroutine.
func (s *Subscriber) Received() uint64 { return s.delivered.Load() }

// Inbox exposes the wrapped inbox (zero-copy receive, instruments).
// Receiving through it directly bypasses control-frame filtering and
// credit accounting.
func (s *Subscriber) Inbox() *msglib.Inbox { return s.in }

// Instrument registers per-topic delivery instruments: deliveries,
// endpoint discards, and (for a credit-enabled subscriber) the
// advertised credit window, labeled by topic and endpoint index.
// Snapshot funcs over existing counters — no new hot-path stores.
func (s *Subscriber) Instrument(reg *metrics.Registry) {
	idx := fmt.Sprintf("%d", s.in.Addr().Index())
	reg.Func(metrics.Name("flipc_topic_delivered_total", "topic", s.topic, "endpoint", idx),
		func() float64 { return float64(s.delivered.Load()) })
	reg.Func(metrics.Name("flipc_topic_recv_dropped_total", "topic", s.topic, "endpoint", idx),
		func() float64 { return float64(s.in.Drops()) })
	if s.credit != nil {
		reg.Func(metrics.Name("flipc_topic_credit_window", "topic", s.topic, "endpoint", idx),
			func() float64 { return float64(s.CreditWindow()) })
	}
}
