// Package rtsched models the real-time pieces of FLIPC's host
// operating system: a priority-aware semaphore and the kernel-side
// wakeup path.
//
// FLIPC deliberately rejects the interrupting-upcall style of active
// messages: "interrupts disrupt execution in a way that cannot be
// controlled by the scheduler, reducing the real time predictability of
// the system" (§Architecture and Design). Instead, a blocked receiver
// registers a real-time semaphore; when a message arrives for an
// endpoint whose receiver is blocked, the messaging engine posts the
// endpoint on a wait-free doorbell ring, and the kernel *presents the
// awakened thread to the scheduler*, which releases threads strictly in
// priority order at dispatch points it controls.
//
// The OS kernel is involved only in these blocking interactions — the
// message data path never enters it.
package rtsched

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flipc/internal/mem"
	"flipc/internal/waitfree"
)

// Priority orders threads; higher values run first. Equal priorities
// dispatch FIFO.
type Priority int

type waiter struct {
	prio Priority
	seq  uint64
	ch   chan struct{}
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Semaphore is a counting semaphore whose waiters are released in
// priority order — the "real time semaphore option" of the paper.
// The zero value is ready to use with count 0.
type Semaphore struct {
	mu      sync.Mutex
	count   int
	seq     uint64
	waiters waiterHeap
}

// NewSemaphore returns a semaphore with an initial count.
func NewSemaphore(initial int) *Semaphore {
	if initial < 0 {
		initial = 0
	}
	return &Semaphore{count: initial}
}

// Post increments the semaphore, releasing the highest-priority waiter
// if any. Never blocks; safe to call from the kernel dispatch path.
func (s *Semaphore) Post() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) > 0 {
		w := heap.Pop(&s.waiters).(*waiter)
		close(w.ch)
		return
	}
	s.count++
}

// Wait decrements the semaphore, blocking at the given priority until
// a post arrives.
func (s *Semaphore) Wait(prio Priority) {
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return
	}
	s.seq++
	w := &waiter{prio: prio, seq: s.seq, ch: make(chan struct{})}
	heap.Push(&s.waiters, w)
	s.mu.Unlock()
	<-w.ch
}

// TryWait decrements without blocking, reporting success.
func (s *Semaphore) TryWait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// WaitTimeout is Wait with a deadline; it reports whether the
// semaphore was acquired (false on timeout).
func (s *Semaphore) WaitTimeout(prio Priority, d time.Duration) bool {
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return true
	}
	s.seq++
	w := &waiter{prio: prio, seq: s.seq, ch: make(chan struct{})}
	heap.Push(&s.waiters, w)
	s.mu.Unlock()

	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-w.ch:
		return true
	case <-timer.C:
	}
	// Timed out: remove ourselves unless a racing Post already popped us.
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cand := range s.waiters {
		if cand == w {
			heap.Remove(&s.waiters, i)
			return false
		}
	}
	// Post won the race; the acquisition is ours.
	return true
}

// Waiting returns the number of blocked waiters.
func (s *Semaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// pending is one wakeup presented to the scheduler but not yet
// dispatched.
type pending struct {
	prio Priority
	seq  uint64
	sem  *Semaphore
	ep   int
}

type pendingHeap []*pending

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x interface{}) { *h = append(*h, x.(*pending)) }
func (h *pendingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// Registration associates an endpoint with the semaphore (and thread
// priority) to wake when the engine rings its doorbell.
type Registration struct {
	Sem  *Semaphore
	Prio Priority
}

// Kernel is the minimal OS-kernel model: it drains the engine→kernel
// doorbell ring and presents wakeups to its scheduler queue, which
// dispatches them in priority order.
type Kernel struct {
	doorbell *waitfree.Ring
	view     mem.View

	mu     sync.Mutex
	seq    uint64
	regs   map[int]Registration
	queue  pendingHeap
	posted uint64
	rung   uint64
	// queued mirrors len(queue), written under mu: a Dispatch with
	// nothing presented (every idle engine pass) reads it and takes no lock.
	queued atomic.Int64
}

// NewKernel creates a kernel draining the given doorbell ring through
// kernelView (an ActorKernel view of the communication buffer's arena).
func NewKernel(doorbell *waitfree.Ring, kernelView mem.View) *Kernel {
	return &Kernel{doorbell: doorbell, view: kernelView, regs: make(map[int]Registration)}
}

// Register installs the wakeup registration for an endpoint index.
func (k *Kernel) Register(epIndex int, r Registration) error {
	if r.Sem == nil {
		return fmt.Errorf("rtsched: registration for endpoint %d has nil semaphore", epIndex)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.regs[epIndex] = r
	return nil
}

// Unregister removes an endpoint's registration.
func (k *Kernel) Unregister(epIndex int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.regs, epIndex)
}

// Drain pops doorbell entries into the scheduler queue. It returns the
// number of wakeups queued. Doorbell entries for unregistered
// endpoints are dropped (the receiver gave up waiting).
func (k *Kernel) Drain() int {
	n := 0
	for {
		v, ok := k.doorbell.Pop(k.view)
		if !ok {
			return n
		}
		k.mu.Lock()
		k.rung++
		if reg, ok := k.regs[int(v)]; ok {
			k.seq++
			heap.Push(&k.queue, &pending{prio: reg.Prio, seq: k.seq, sem: reg.Sem, ep: int(v)})
			k.queued.Store(int64(len(k.queue)))
			n++
		}
		k.mu.Unlock()
	}
}

// Dispatch releases up to max queued wakeups in priority order (max<=0
// means all). This is the scheduler's decision point: the paper's
// design lets it defer low-priority wakeups while high-priority work
// runs. It returns the number dispatched.
func (k *Kernel) Dispatch(max int) int {
	if k.queued.Load() == 0 {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for len(k.queue) > 0 && (max <= 0 || n < max) {
		p := heap.Pop(&k.queue).(*pending)
		p.sem.Post()
		k.posted++
		n++
	}
	k.queued.Store(int64(len(k.queue)))
	return n
}

// Pump drains and dispatches everything; the convenience used by the
// in-process runtime loop.
func (k *Kernel) Pump() int {
	k.Drain()
	return k.Dispatch(0)
}

// QueuedWakeups returns the number of undispatched wakeups.
func (k *Kernel) QueuedWakeups() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.queue)
}

// Stats returns (doorbells seen, semaphore posts performed).
func (k *Kernel) Stats() (rung, posted uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rung, k.posted
}
