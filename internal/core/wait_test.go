package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"flipc/internal/rtsched"
)

// The blocking calls' wake-up: every one waits on the engine's
// doorbell, so a wake lands within a pass of the event, far inside
// WakePollFallback. Each round blocks a waiter, then drives the event
// with one manual Poll per domain; a waiter that only woke on the
// fallback timer would read close to 2 ms, so the median over the
// rounds must stay under half of it.

const wakeRounds = 15

// untilBlocked returns once a thread waits on sem.
func untilBlocked(t *testing.T, sem *rtsched.Semaphore) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); sem.Waiting() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked")
		}
	}
}

// wakeMedian runs wakeRounds rounds of: arm (queue the event's cause),
// start the blocking call on a goroutine, wait until it sleeps on sem,
// then fire and time how long the call takes to return.
func wakeMedian(t *testing.T, sem *rtsched.Semaphore, arm func(), block func() error, fire func()) time.Duration {
	t.Helper()
	var lat []time.Duration
	for r := 0; r < wakeRounds; r++ {
		arm()
		woke := make(chan time.Time, 1)
		errc := make(chan error, 1)
		go func() {
			err := block()
			woke <- time.Now()
			errc <- err
		}()
		untilBlocked(t, sem)
		t0 := time.Now()
		fire()
		select {
		case t1 := <-woke:
			if err := <-errc; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			lat = append(lat, t1.Sub(t0))
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: blocked call never woke", r)
		}
	}
	slices.Sort(lat)
	med := lat[len(lat)/2]
	t.Logf("wake latency over %d rounds: median %v, max %v", wakeRounds, med, lat[len(lat)-1])
	if med >= WakePollFallback/2 {
		t.Fatalf("median wake %v is not a doorbell wake (fallback %v)", med, WakePollFallback)
	}
	return med
}

func TestReceiveBlockWakesOnDoorbell(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	wakeMedian(t, &rep.sem,
		func() {
			rb, _ := b.AllocBuffer()
			rep.Post(rb)
			sb, _ := a.AllocBuffer()
			sep.Send(sb, rep.Addr(), 1)
			a.Poll() // the frame is on the fabric, not yet delivered
			if m, ok := sep.Acquire(); ok {
				a.FreeBuffer(m)
			}
		},
		func() error {
			m, err := rep.ReceiveBlock(1, time.Time{})
			if err == nil {
				b.FreeBuffer(m)
			}
			return err
		},
		func() { b.Poll() })
}

func TestGroupReceiveBlockWakesOnDoorbell(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep1, _ := b.NewRecvEndpoint(4)
	rep2, _ := b.NewRecvEndpoint(4)
	g, _ := b.NewGroup(rep1, rep2)
	r := 0
	wakeMedian(t, &g.sem,
		func() {
			rep := []*Endpoint{rep1, rep2}[r%2]
			r++
			rb, _ := b.AllocBuffer()
			rep.Post(rb)
			sb, _ := a.AllocBuffer()
			sep.Send(sb, rep.Addr(), 1)
			a.Poll()
			if m, ok := sep.Acquire(); ok {
				a.FreeBuffer(m)
			}
		},
		func() error {
			m, _, err := g.ReceiveBlock(1, time.Time{})
			if err == nil {
				b.FreeBuffer(m)
			}
			return err
		},
		func() { b.Poll() })
}

func TestAcquireBlockWakesOnSendCompletion(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	wakeMedian(t, &sep.sem,
		func() {
			sb, _ := a.AllocBuffer()
			sep.Send(sb, rep.Addr(), 1) // queued; the engine has not run
		},
		func() error {
			m, err := sep.AcquireBlock(1, time.Time{})
			if err == nil {
				a.FreeBuffer(m)
			}
			return err
		},
		func() { a.Poll() })
	if st := a.Engine().Stats(); st.Doorbells != wakeRounds {
		t.Fatalf("doorbells = %d, want one a completing pass (%d)", st.Doorbells, wakeRounds)
	}
}

// A completed send on an endpoint nobody waits on rings nothing.
func TestSendCompletionRingsOnlyWhenArmed(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	for i := 0; i < 3; i++ {
		sb, _ := a.AllocBuffer()
		sep.Send(sb, rep.Addr(), 1)
	}
	pump(a, b)
	if st := a.Engine().Stats(); st.Sent != 3 || st.Doorbells != 0 {
		t.Fatalf("sent %d, doorbells %d; want 3 and 0", st.Sent, st.Doorbells)
	}
}

// Every blocking call gives up with ErrTimeout once its deadline
// passes, and never before it.
func TestBlockingCallsTimeOut(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	d := doms[0]
	d.Start()
	rep, _ := d.NewRecvEndpoint(4)
	rep2, _ := d.NewRecvEndpoint(4)
	g, _ := d.NewGroup(rep, rep2)
	sep, _ := d.NewSendEndpoint(4)
	const wait = 20 * time.Millisecond
	for _, c := range []struct {
		name string
		call func(deadline time.Time) error
	}{
		{"receive", func(dl time.Time) error { _, err := rep.ReceiveBlock(1, dl); return err }},
		{"group receive", func(dl time.Time) error { _, _, err := g.ReceiveBlock(1, dl); return err }},
		{"send", func(dl time.Time) error { _, err := sep.AcquireBlock(1, dl); return err }},
	} {
		deadline := time.Now().Add(wait)
		err := c.call(deadline)
		if now := time.Now(); err != ErrTimeout || now.Before(deadline) {
			t.Errorf("%s: err %v %v after the deadline, want ErrTimeout at or after it", c.name, err, now.Sub(deadline))
		}
	}
	// A deadline already passed still takes what is ready.
	sb, _ := d.AllocBuffer()
	rb, _ := d.AllocBuffer()
	rep.Post(rb)
	sep.Send(sb, rep.Addr(), 1)
	if _, err := rep.ReceiveBlock(1, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := sep.AcquireBlock(1, time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("ready buffer behind a passed deadline: %v", err)
	}
}

func TestGroupCloseReleasesBlockedReceive(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	d := doms[0]
	d.Start()
	rep1, _ := d.NewRecvEndpoint(4)
	rep2, _ := d.NewRecvEndpoint(4)
	g, _ := d.NewGroup(rep1, rep2)
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.ReceiveBlock(1, time.Time{})
		errc <- err
	}()
	untilBlocked(t, &g.sem)
	g.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("ReceiveBlock after group Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked group not released by Close")
	}
	if _, _, err := g.ReceiveBlock(1, time.Time{}); err != ErrClosed {
		t.Fatalf("ReceiveBlock on a closed group = %v", err)
	}
}
