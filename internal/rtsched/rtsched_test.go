package rtsched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flipc/internal/mem"
	"flipc/internal/waitfree"
)

func TestSemaphoreCounting(t *testing.T) {
	s := NewSemaphore(2)
	if !s.TryWait() || !s.TryWait() {
		t.Fatal("initial count not honored")
	}
	if s.TryWait() {
		t.Fatal("TryWait on zero succeeded")
	}
	s.Post()
	if !s.TryWait() {
		t.Fatal("TryWait after Post failed")
	}
}

func TestNewSemaphoreNegative(t *testing.T) {
	s := NewSemaphore(-5)
	if s.TryWait() {
		t.Fatal("negative initial count became positive")
	}
}

func TestSemaphoreWaitBlocksUntilPost(t *testing.T) {
	s := NewSemaphore(0)
	done := make(chan struct{})
	go func() {
		s.WaitTimeout(0, -1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned without Post")
	case <-time.After(10 * time.Millisecond):
	}
	s.Post()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after Post")
	}
}

// The defining real-time property: waiters release in priority order,
// not arrival order.
func TestSemaphorePriorityOrder(t *testing.T) {
	s := NewSemaphore(0)
	var order []Priority
	var mu sync.Mutex
	var wg sync.WaitGroup
	prios := []Priority{1, 5, 3, 5, 2}
	started := make(chan struct{}, len(prios))
	for _, p := range prios {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			s.WaitTimeout(p, -1)
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
		}()
		<-started // serialize arrival so FIFO-within-priority is defined
		for s.Waiting() < 1 {
			time.Sleep(time.Millisecond)
		}
	}
	for s.Waiting() != len(prios) {
		time.Sleep(time.Millisecond)
	}
	for range prios {
		s.Post()
		time.Sleep(5 * time.Millisecond) // let the released goroutine record
	}
	wg.Wait()
	want := []Priority{5, 5, 3, 2, 1}
	for i, p := range want {
		if order[i] != p {
			t.Fatalf("release order = %v, want %v", order, want)
		}
	}
}

func TestSemaphoreWaitTimeout(t *testing.T) {
	s := NewSemaphore(0)
	start := time.Now()
	if s.WaitTimeout(0, 20*time.Millisecond) {
		t.Fatal("WaitTimeout acquired from empty semaphore")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("WaitTimeout returned too early")
	}
	if s.Waiting() != 0 {
		t.Fatal("timed-out waiter left behind")
	}
	s.Post()
	if !s.WaitTimeout(0, time.Second) {
		t.Fatal("WaitTimeout failed with count available")
	}
	// Timeout must not eat a Post: post while nobody waits, then verify.
	s.Post()
	if !s.TryWait() {
		t.Fatal("Post lost")
	}
}

func TestSemaphoreTimeoutPostRace(t *testing.T) {
	// Repeatedly race a short timeout against a post; acquisitions plus
	// leftover count must equal posts.
	s := NewSemaphore(0)
	var acquired atomic.Int64
	const rounds = 200
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.WaitTimeout(0, time.Microsecond) {
				acquired.Add(1)
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		s.Post()
	}
	wg.Wait()
	leftover := 0
	for s.TryWait() {
		leftover++
	}
	if int(acquired.Load())+leftover != rounds {
		t.Fatalf("acquired %d + leftover %d != posts %d", acquired.Load(), leftover, rounds)
	}
}

func newKernel(t *testing.T) (*Kernel, *waitfree.Ring, mem.View, mem.View) {
	t.Helper()
	a, err := mem.New(mem.Config{ControlWords: 256, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.AllocLines(waitfree.RingWords(16, 4, true) / 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := waitfree.NewRing(a, base, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := mem.NewView(a, mem.ActorEngine)
	kv := mem.NewView(a, mem.ActorKernel)
	return NewKernel(ring, kv), ring, eng, kv
}

func TestKernelRegisterValidation(t *testing.T) {
	k, _, _, _ := newKernel(t)
	if err := k.Register(0, Registration{}); err == nil {
		t.Fatal("nil-semaphore registration accepted")
	}
}

func TestKernelWakeupPath(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	sem := NewSemaphore(0)
	if err := k.Register(3, Registration{Sem: sem, Prio: 1}); err != nil {
		t.Fatal(err)
	}
	// Engine rings the doorbell for endpoint 3.
	if !ring.Push(eng, 3) {
		t.Fatal("doorbell push failed")
	}
	if got := k.Drain(); got != 1 {
		t.Fatalf("Drain = %d", got)
	}
	if k.QueuedWakeups() != 1 {
		t.Fatalf("QueuedWakeups = %d", k.QueuedWakeups())
	}
	if sem.TryWait() {
		t.Fatal("semaphore posted before Dispatch — scheduler bypassed")
	}
	if got := k.Dispatch(0); got != 1 {
		t.Fatalf("Dispatch = %d", got)
	}
	if !sem.TryWait() {
		t.Fatal("semaphore not posted after Dispatch")
	}
	rung, posted := k.Stats()
	if rung != 1 || posted != 1 {
		t.Fatalf("stats = %d,%d", rung, posted)
	}
}

// TestKernelIdlePumpTakesNoLock holds the kernel's mutex and pumps: with
// an empty doorbell and nothing presented — what every idle engine pass
// finds — Pump must return without waiting for it. A presented wakeup
// then still goes through the lock: partial dispatch keeps the rest
// queued and visible to the next Pump.
func TestKernelIdlePumpTakesNoLock(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	k.mu.Lock()
	done := make(chan int, 1)
	go func() { done <- k.Pump() }()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("idle Pump dispatched %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle Pump waited for the kernel lock")
	}
	k.mu.Unlock()

	sem := NewSemaphore(0)
	if err := k.Register(1, Registration{Sem: sem}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ring.Push(eng, 1)
	}
	k.Drain()
	if got := k.Dispatch(2); got != 2 {
		t.Fatalf("Dispatch(2) = %d", got)
	}
	if got := k.Pump(); got != 1 || k.QueuedWakeups() != 0 {
		t.Fatalf("Pump after a partial dispatch = %d, %d still queued", got, k.QueuedWakeups())
	}
	if got := k.Pump(); got != 0 {
		t.Fatalf("Pump with nothing left = %d", got)
	}
}

func TestKernelDispatchPriorityOrder(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	low := NewSemaphore(0)
	high := NewSemaphore(0)
	k.Register(1, Registration{Sem: low, Prio: 1})
	k.Register(2, Registration{Sem: high, Prio: 9})
	ring.Push(eng, 1) // low arrives first
	ring.Push(eng, 2)
	k.Drain()
	// Dispatch one: must be the high-priority endpoint despite arriving
	// second — this is "the scheduler determines when it is appropriate
	// to execute that thread".
	if k.Dispatch(1) != 1 {
		t.Fatal("dispatch failed")
	}
	if !high.TryWait() {
		t.Fatal("high-priority wakeup not dispatched first")
	}
	if low.TryWait() {
		t.Fatal("low-priority wakeup dispatched early")
	}
	k.Dispatch(1)
	if !low.TryWait() {
		t.Fatal("low-priority wakeup lost")
	}
}

func TestKernelUnregisteredDoorbellDropped(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	ring.Push(eng, 7)
	if k.Drain() != 0 {
		t.Fatal("unregistered doorbell queued a wakeup")
	}
	rung, _ := k.Stats()
	if rung != 1 {
		t.Fatalf("rung = %d", rung)
	}
}

func TestKernelUnregister(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	sem := NewSemaphore(0)
	k.Register(4, Registration{Sem: sem, Prio: 0})
	k.Unregister(4)
	ring.Push(eng, 4)
	if k.Drain() != 0 {
		t.Fatal("unregistered endpoint woke")
	}
}

func TestKernelPump(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	sem := NewSemaphore(0)
	k.Register(0, Registration{Sem: sem, Prio: 0})
	ring.Push(eng, 0)
	ring.Push(eng, 0)
	if got := k.Pump(); got != 2 {
		t.Fatalf("Pump = %d", got)
	}
	if !sem.TryWait() || !sem.TryWait() {
		t.Fatal("pump posts missing")
	}
}

func TestEndToEndBlockedReceiverWake(t *testing.T) {
	k, ring, eng, _ := newKernel(t)
	sem := NewSemaphore(0)
	k.Register(5, Registration{Sem: sem, Prio: 3})
	done := make(chan struct{})
	go func() {
		sem.WaitTimeout(3, -1)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	ring.Push(eng, 5)
	k.Pump()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("blocked receiver never woke")
	}
}
