package core

import (
	"fmt"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/rtsched"
)

// Endpoint is the application handle on one FLIPC endpoint. The
// unqualified operations (Send, Post, Receive, Acquire) are the tuned
// lock-free variants: they are safe when at most one application thread
// uses the endpoint at a time. The *Locked variants serialize
// application threads with the endpoint's test-and-set lock.
type Endpoint struct {
	d   *Domain
	ep  *commbuf.Endpoint
	sem *rtsched.Semaphore
}

// NewSendEndpoint allocates a send endpoint with the given queue depth
// (0 = domain default).
func (d *Domain) NewSendEndpoint(depth int) (*Endpoint, error) {
	return d.newEndpoint(commbuf.EndpointSend, depth, 0)
}

// NewRecvEndpoint allocates a receive endpoint with the given queue
// depth (0 = domain default).
func (d *Domain) NewRecvEndpoint(depth int) (*Endpoint, error) {
	return d.newEndpoint(commbuf.EndpointRecv, depth, 0)
}

// NewSendEndpointPrio allocates a send endpoint with a transport
// priority (the prioritized-transport extension; higher drains first
// under engine.PolicyPriority).
func (d *Domain) NewSendEndpointPrio(depth int, prio uint8) (*Endpoint, error) {
	return d.newEndpoint(commbuf.EndpointSend, depth, prio)
}

func (d *Domain) newEndpoint(typ commbuf.EndpointType, depth int, prio uint8) (*Endpoint, error) {
	if d.isClosed() {
		return nil, ErrClosed
	}
	ep, err := d.buf.AllocEndpointPrio(typ, depth, prio)
	if err != nil {
		return nil, err
	}
	return &Endpoint{d: d, ep: ep, sem: rtsched.NewSemaphore(0)}, nil
}

// Free releases the endpoint, invalidating its address.
func (e *Endpoint) Free() error {
	e.d.kernel.Unregister(e.ep.Index())
	return e.d.buf.FreeEndpoint(e.ep)
}

// Addr returns the endpoint's opaque address.
func (e *Endpoint) Addr() Addr { return e.ep.Addr() }

// QueueDepth returns the endpoint queue capacity.
func (e *Endpoint) QueueDepth() int { return e.ep.Queue().Capacity() }

// Pending returns (buffers awaiting engine processing, buffers
// processed but not yet acquired).
func (e *Endpoint) Pending() (toProcess, toAcquire int) {
	return e.ep.Queue().Depths(e.d.app)
}

// Drops returns the endpoint's discarded-message count since the last
// reset, without resetting.
func (e *Endpoint) Drops() uint64 { return e.ep.Drops().Read(e.d.app) }

// ReadAndResetDrops returns and resets the discarded-message count as a
// single logical operation; increments racing the reset are never lost
// (the two-location wait-free counter, §Wait-Free Synchronization).
func (e *Endpoint) ReadAndResetDrops() uint64 { return e.ep.Drops().ReadAndReset(e.d.app) }

// Send queues msg for asynchronous one-way delivery of n payload bytes
// to dst (step 2 of Figure 2). The buffer belongs to the engine until
// it reappears through Acquire; delivery is unacknowledged and the
// receiver discards if it has no buffer posted.
func (e *Endpoint) Send(msg *Message, dst Addr, n int) error {
	return e.send(msg, dst, n, 0)
}

// SendFlags is Send with a flags byte (priority class bits, FlagUrgent).
func (e *Endpoint) SendFlags(msg *Message, dst Addr, n int, flags uint8) error {
	return e.send(msg, dst, n, flags)
}

func (e *Endpoint) send(msg *Message, dst Addr, n int, flags uint8) error {
	if e.ep.Type() != commbuf.EndpointSend {
		return ErrWrongType
	}
	if msg == nil || msg.d != e.d {
		return fmt.Errorf("flipc: Send of foreign or nil message")
	}
	if e.ep.Queue().Full(e.d.app) {
		return ErrQueueFull
	}
	if err := msg.m.StageSend(e.d.app, dst, n, flags); err != nil {
		return err
	}
	if !e.ep.Queue().Release(e.d.app, uint64(msg.m.ID())) {
		// Racing thread filled the queue between the check and the
		// release; undo the staging. (Single-threaded callers never
		// reach this; *Locked callers hold the lock.)
		if err := msg.m.Unstage(e.d.app); err != nil {
			return err
		}
		return ErrQueueFull
	}
	return nil
}

// Post provides an empty buffer to a receive endpoint (step 1 of
// Figure 2). Buffers post in FIFO order; an arrival with no posted
// buffer is discarded and counted.
func (e *Endpoint) Post(msg *Message) error {
	if e.ep.Type() != commbuf.EndpointRecv {
		return ErrWrongType
	}
	if msg == nil || msg.d != e.d {
		return fmt.Errorf("flipc: Post of foreign or nil message")
	}
	if e.ep.Queue().Full(e.d.app) {
		return ErrQueueFull
	}
	if err := msg.m.StageRecv(e.d.app); err != nil {
		return err
	}
	if !e.ep.Queue().Release(e.d.app, uint64(msg.m.ID())) {
		if err := msg.m.Unstage(e.d.app); err != nil {
			return err
		}
		return ErrQueueFull
	}
	return nil
}

// Acquire removes the oldest engine-processed buffer from the endpoint
// (steps 4/5 of Figure 2): on a send endpoint, a transmitted (or
// refused) buffer ready for reuse; on a receive endpoint, a delivered
// message. It reports false when nothing is ready.
func (e *Endpoint) Acquire() (*Message, bool) {
	id, ok := e.ep.Queue().Acquire(e.d.app)
	if !ok {
		return nil, false
	}
	if !e.d.buf.ValidBufID(id) {
		// Only possible if the application corrupted its own queue.
		return nil, false
	}
	msg := &e.d.msgs[id]
	// A Reclaim error means the engine marked it neither Done nor
	// Dropped — application misuse; surface the buffer anyway so it is
	// not leaked.
	_ = msg.m.Reclaim(e.d.app)
	return msg, true
}

// Receive is Acquire spelled for receive endpoints: it returns the next
// delivered message.
func (e *Endpoint) Receive() (*Message, bool) {
	if e.ep.Type() != commbuf.EndpointRecv {
		return nil, false
	}
	return e.Acquire()
}

// Locked interface variants: identical semantics, with application
// threads serialized by the endpoint's test-and-set lock. On the
// Paragon this lock is not cache resident and costs a bus-locked memory
// operation per acquire — measured in experiment E4.

// SendLocked is Send under the endpoint lock.
func (e *Endpoint) SendLocked(msg *Message, dst Addr, n int) error {
	e.ep.Lock(e.d.app)
	defer e.ep.Unlock(e.d.app)
	return e.send(msg, dst, n, 0)
}

// PostLocked is Post under the endpoint lock.
func (e *Endpoint) PostLocked(msg *Message) error {
	e.ep.Lock(e.d.app)
	defer e.ep.Unlock(e.d.app)
	return e.Post(msg)
}

// AcquireLocked is Acquire under the endpoint lock.
func (e *Endpoint) AcquireLocked() (*Message, bool) {
	e.ep.Lock(e.d.app)
	defer e.ep.Unlock(e.d.app)
	return e.Acquire()
}

// ReceiveLocked is Receive under the endpoint lock.
func (e *Endpoint) ReceiveLocked() (*Message, bool) {
	e.ep.Lock(e.d.app)
	defer e.ep.Unlock(e.d.app)
	return e.Receive()
}

// wakePollFallback bounds how long a blocked receiver trusts the
// doorbell before re-polling. The doorbell ring can fill under load (a
// wait-free structure cannot block the producer), so blocking receives
// are doorbell-driven with a polling safety net.
const wakePollFallback = 2 * time.Millisecond

// ReceiveBlock blocks until a message arrives, waking through the
// real-time semaphore path: the engine rings the kernel doorbell, the
// kernel presents this thread to the scheduler, and the scheduler
// releases waiters in priority order. prio is this thread's scheduling
// priority.
func (e *Endpoint) ReceiveBlock(prio Priority) (*Message, error) {
	if e.ep.Type() != commbuf.EndpointRecv {
		return nil, ErrWrongType
	}
	if msg, ok := e.Receive(); ok {
		return msg, nil
	}
	if err := e.d.kernel.Register(e.ep.Index(), rtsched.Registration{Sem: e.sem, Prio: prio}); err != nil {
		return nil, err
	}
	e.ep.SetWakeup(e.d.app, true)
	defer func() {
		e.ep.SetWakeup(e.d.app, false)
		e.d.kernel.Unregister(e.ep.Index())
	}()
	for {
		// Re-check after arming the flag: a message that landed between
		// the fast path and SetWakeup must not be missed.
		if msg, ok := e.Receive(); ok {
			return msg, nil
		}
		if e.d.isClosed() {
			return nil, ErrClosed
		}
		e.sem.WaitTimeout(prio, wakePollFallback)
	}
}
