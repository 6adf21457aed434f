// Package msglib is the improved buffer-management layer the paper
// calls for in Future Work: "a FLIPC application can expect to employ
// about half of its calls to FLIPC to send or receive messages, and the
// other half for message buffer management. An improved buffer
// management design that frees the programmer from most of these
// details is clearly called for."
//
// The package wraps the raw endpoint interface with two abstractions
// that manage buffers automatically:
//
//   - Outbox: send with one call; completed buffers are reclaimed and
//     recycled behind the scenes;
//   - Inbox: receive with one call; the buffer pool is kept posted and
//     consumed buffers are reposted automatically. A receive lends the
//     payload, copied into the inbox's own buffer and valid until the
//     next receive; the zero-copy variant skips only that memcpy.
//
// Both are single-threaded like the lock-free endpoint variants they
// wrap; use one per thread or add external locking.
package msglib

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"flipc/internal/core"
	"flipc/internal/metrics"
)

// ErrBackpressure is returned when neither a free buffer nor a queue
// slot can be obtained without blocking.
var ErrBackpressure = errors.New("msglib: endpoint backlogged; retry")

// Outbox wraps a send endpoint with automatic buffer management.
type Outbox struct {
	d    *core.Domain
	ep   *core.Endpoint
	pool []*core.Message
	sent uint64

	mSent, mBackpressure *metrics.Counter // nil until Instrument
}

// Instrument registers the outbox's counters with reg, labeled by the
// endpoint's index. The outbox is the counters' single writer (it is
// single-threaded like the endpoint it wraps), so updates stay
// wait-free plain stores.
func (o *Outbox) Instrument(reg *metrics.Registry) {
	ep := strconv.Itoa(int(o.ep.Addr().Index()))
	o.mSent = reg.Counter(metrics.Name("flipc_outbox_sent_total", "endpoint", ep))
	o.mBackpressure = reg.Counter(metrics.Name("flipc_outbox_backpressure_total", "endpoint", ep))
}

// NewOutbox creates an outbox with its own send endpoint (depth 0 =
// domain default) and a private pool of bufs message buffers.
func NewOutbox(d *core.Domain, depth, bufs int) (*Outbox, error) {
	return NewOutboxPrio(d, depth, bufs, 0)
}

// NewOutboxPrio is NewOutbox with a transport priority for the send
// endpoint — the engine's PolicyPriority ordering and quantum
// reservation key off it (topic publishers derive it from the topic's
// class).
func NewOutboxPrio(d *core.Domain, depth, bufs int, prio uint8) (*Outbox, error) {
	if bufs < 1 {
		return nil, fmt.Errorf("msglib: outbox needs at least one buffer, got %d", bufs)
	}
	ep, err := d.NewSendEndpointPrio(depth, prio)
	if err != nil {
		return nil, err
	}
	o := &Outbox{d: d, ep: ep, pool: make([]*core.Message, 0, bufs)}
	for i := 0; i < bufs; i++ {
		m, err := d.AllocBuffer()
		if err != nil {
			return nil, fmt.Errorf("msglib: outbox pool: %w", err)
		}
		o.pool = append(o.pool, m)
	}
	return o, nil
}

// reclaim pulls completed sends back into the pool.
func (o *Outbox) reclaim() {
	for {
		m, ok := o.ep.Acquire()
		if !ok {
			return
		}
		o.pool = append(o.pool, m)
	}
}

// Send transmits payload to dst in one call: it takes a pooled buffer,
// copies the payload, queues the send, and recycles completed buffers.
// Returns ErrBackpressure when the pool and queue are both exhausted —
// the caller waits with SendBlock, or sizes the pool to its burst, per
// the static flow-control examples.
func (o *Outbox) Send(dst core.Addr, payload []byte) error {
	return o.SendFlags(dst, payload, 0)
}

// SendFlags is Send with a flags byte.
func (o *Outbox) SendFlags(dst core.Addr, payload []byte, flags uint8) error {
	if len(payload) > o.d.MaxPayload() {
		return fmt.Errorf("msglib: payload %d exceeds message capacity %d", len(payload), o.d.MaxPayload())
	}
	o.reclaim()
	if len(o.pool) == 0 {
		return o.backpressure()
	}
	m := o.pool[len(o.pool)-1]
	o.pool = o.pool[:len(o.pool)-1]
	n := copy(m.Payload(), payload)
	if err := o.ep.SendFlags(m, dst, n, flags); err != nil {
		o.pool = append(o.pool, m)
		if errors.Is(err, core.ErrQueueFull) {
			return o.backpressure()
		}
		return err
	}
	o.sent++
	if o.mSent != nil {
		o.mSent.Inc()
	}
	return nil
}

// backpressure counts one refused send.
func (o *Outbox) backpressure() error {
	if o.mBackpressure != nil {
		o.mBackpressure.Inc()
	}
	return ErrBackpressure
}

// SendBlock is Send that, instead of returning ErrBackpressure, waits
// at prio for the engine to complete an earlier send, woken by the
// doorbell. Past the deadline (zero: none) it returns core.ErrTimeout.
func (o *Outbox) SendBlock(dst core.Addr, payload []byte, prio core.Priority, deadline time.Time) error {
	for {
		if err := o.Send(dst, payload); err != ErrBackpressure {
			return err
		}
		m, err := o.ep.AcquireBlock(prio, deadline)
		if err != nil {
			return err
		}
		o.pool = append(o.pool, m)
	}
}

// SendReady reports whether the next Send can proceed without
// backpressure: a pooled buffer is free and the send queue has a slot.
// Reclaims completed sends as a side effect. Callers whose staging work
// is costlier than the send itself (replay reads, encode passes) probe
// this before staging instead of paying for a send that will refuse.
func (o *Outbox) SendReady() bool {
	o.reclaim()
	if len(o.pool) == 0 {
		return false
	}
	toProc, toAcq := o.ep.Pending()
	return toProc+toAcq < o.ep.QueueDepth()
}

// Flush reports whether all queued sends have completed (reclaiming as
// a side effect).
func (o *Outbox) Flush() bool {
	o.reclaim()
	toProc, toAcq := o.ep.Pending()
	return toProc == 0 && toAcq == 0
}

// Close frees the outbox's endpoint and returns its pooled buffers to
// the domain. It reclaims completed sends first and refuses while one
// is still in flight, since the engine may yet read that buffer.
func (o *Outbox) Close() error {
	if !o.Flush() {
		return fmt.Errorf("msglib: outbox %v has sends in flight", o.ep.Addr())
	}
	if err := o.ep.Free(); err != nil {
		return err
	}
	for _, m := range o.pool {
		if err := o.d.FreeBuffer(m); err != nil {
			return err
		}
	}
	o.pool = nil
	return nil
}

// Sent returns the number of messages sent.
func (o *Outbox) Sent() uint64 { return o.sent }

// MaxPayload returns the domain's per-message payload capacity.
func (o *Outbox) MaxPayload() int { return o.d.MaxPayload() }

// Endpoint exposes the wrapped endpoint (address, drops).
func (o *Outbox) Endpoint() *core.Endpoint { return o.ep }

// Inbox wraps a receive endpoint that keeps itself stocked with
// buffers.
type Inbox struct {
	d        *core.Domain
	ep       *core.Endpoint
	buf      []byte // the lent payload; capacity MaxPayload
	received uint64

	mReceived *metrics.Counter // nil until Instrument
}

// Instrument registers the inbox's receive counter with reg, labeled
// by the endpoint's index. Single-writer, like Outbox.Instrument.
func (in *Inbox) Instrument(reg *metrics.Registry) {
	ep := strconv.Itoa(int(in.ep.Addr().Index()))
	in.mReceived = reg.Counter(metrics.Name("flipc_inbox_received_total", "endpoint", ep))
}

// bump counts one consumed message.
func (in *Inbox) bump() {
	in.received++
	if in.mReceived != nil {
		in.mReceived.Inc()
	}
}

// NewInbox creates an inbox whose endpoint (depth 0 = domain default)
// is kept stocked with bufs posted buffers.
func NewInbox(d *core.Domain, depth, bufs int) (*Inbox, error) {
	if bufs < 1 {
		return nil, fmt.Errorf("msglib: inbox needs at least one buffer, got %d", bufs)
	}
	ep, err := d.NewRecvEndpoint(depth)
	if err != nil {
		return nil, err
	}
	in := &Inbox{d: d, ep: ep, buf: make([]byte, 0, d.MaxPayload())}
	for i := 0; i < bufs; i++ {
		m, err := d.AllocBuffer()
		if err != nil {
			return nil, fmt.Errorf("msglib: inbox pool: %w", err)
		}
		if err := ep.Post(m); err != nil {
			return nil, fmt.Errorf("msglib: inbox post: %w", err)
		}
	}
	return in, nil
}

// Addr returns the inbox's receive address.
func (in *Inbox) Addr() core.Addr { return in.ep.Addr() }

// Receive returns the next message's payload (lent: valid until the next
// receive on this inbox) and flags; the buffer is reposted immediately.
func (in *Inbox) Receive() (payload []byte, flags uint8, ok bool) {
	m, ok := in.ep.Receive()
	if !ok {
		return nil, 0, false
	}
	payload, flags = in.lend(m)
	return payload, flags, true
}

// lend copies m's payload into in.buf, reposts m and counts the receive.
func (in *Inbox) lend(m *core.Message) ([]byte, uint8) {
	in.buf = append(in.buf[:0], m.Payload()[:m.Len()]...)
	flags := m.Flags()
	in.Done(m)
	in.bump()
	return in.buf, flags
}

// ReceiveZeroCopy returns the message itself; the caller must hand it
// back with Done (which reposts it) when finished reading the payload.
func (in *Inbox) ReceiveZeroCopy() (*core.Message, bool) {
	m, ok := in.ep.Receive()
	if ok {
		in.bump()
	}
	return m, ok
}

// Done returns a zero-copy message's buffer to the posted pool, or to
// the domain if the endpoint refuses it.
func (in *Inbox) Done(m *core.Message) {
	if m != nil && in.ep.Post(m) != nil {
		in.d.FreeBuffer(m)
	}
}

// ReceiveBlock is Receive that blocks via the real-time semaphore path
// until a message arrives or the deadline (zero: none) passes.
func (in *Inbox) ReceiveBlock(prio core.Priority, deadline time.Time) ([]byte, uint8, error) {
	m, err := in.ep.ReceiveBlock(prio, deadline)
	if err != nil {
		return nil, 0, err
	}
	payload, flags := in.lend(m)
	return payload, flags, nil
}

// Drops exposes the endpoint's discard counter.
func (in *Inbox) Drops() uint64 { return in.ep.Drops() }

// Received returns the number of messages consumed.
func (in *Inbox) Received() uint64 { return in.received }

// Endpoint exposes the wrapped endpoint.
func (in *Inbox) Endpoint() *core.Endpoint { return in.ep }
