package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/wire"
)

// newCluster builds n domains on a shared in-process fabric.
func newCluster(t *testing.T, n int, cfg Config) []*Domain {
	t.Helper()
	fabric := interconnect.NewFabric(256)
	doms := make([]*Domain, n)
	for i := range doms {
		c := cfg
		c.Node = wire.NodeID(i)
		if c.MessageSize == 0 {
			c.MessageSize = 64
		}
		if c.NumBuffers == 0 {
			c.NumBuffers = 32
		}
		tr, err := fabric.Attach(wire.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDomain(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = d
		t.Cleanup(d.Close)
	}
	return doms
}

// pump drives all domains until quiescent (manual mode).
func pump(doms ...*Domain) {
	for pass := 0; pass < 100; pass++ {
		work := false
		for _, d := range doms {
			if d.Poll() {
				work = true
			}
		}
		if !work {
			return
		}
	}
}

func TestDomainBasics(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	d := doms[0]
	if d.MaxPayload() != 56 {
		t.Fatalf("MaxPayload = %d", d.MaxPayload())
	}
	if d.Buffer() == nil || d.Engine() == nil || d.Kernel() == nil {
		t.Fatal("nil accessors")
	}
}

func TestAllocFreeBuffer(t *testing.T) {
	doms := newCluster(t, 1, Config{NumBuffers: 2})
	d := doms[0]
	m1, err := d.AllocBuffer()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := d.AllocBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocBuffer(); err == nil {
		t.Fatal("buffer exhaustion not reported")
	}
	if err := d.FreeBuffer(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocBuffer(); err != nil {
		t.Fatal("alloc after free failed")
	}
	if err := d.FreeBuffer(nil); err == nil {
		t.Fatal("FreeBuffer(nil) accepted")
	}
	_ = m2
}

func TestFiveStepTransfer(t *testing.T) {
	doms := newCluster(t, 2, Config{Engine: engine.Config{ValidityChecks: true}})
	a, b := doms[0], doms[1]
	sep, err := a.NewSendEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: receiver posts a buffer.
	rb, _ := b.AllocBuffer()
	if err := rep.Post(rb); err != nil {
		t.Fatal(err)
	}
	// Step 2: sender queues a message.
	sb, _ := a.AllocBuffer()
	n := copy(sb.Payload(), "event: contact detected")
	if err := sep.Send(sb, rep.Addr(), n); err != nil {
		t.Fatal(err)
	}
	// Step 3: the engines move it.
	pump(a, b)
	// Step 4: receiver removes the message.
	got, ok := rep.Receive()
	if !ok {
		t.Fatal("no message delivered")
	}
	if got.Len() != n || string(got.Payload()[:n]) != "event: contact detected" {
		t.Fatalf("received %d bytes %q", got.Len(), got.Payload()[:got.Len()])
	}
	// Step 5: sender reclaims its buffer.
	back, ok := sep.Acquire()
	if !ok || back.ID() != sb.ID() {
		t.Fatal("sender did not get its buffer back")
	}
	if err := a.FreeBuffer(back); err != nil {
		t.Fatal(err)
	}
	if err := b.FreeBuffer(got); err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(2)
	rep, _ := b.NewRecvEndpoint(2)
	m, _ := a.AllocBuffer()
	if err := rep.Post(m); err == nil {
		t.Fatal("Post of foreign-domain message accepted")
	}
	if err := sep.Post(m); err != ErrWrongType {
		t.Fatalf("Post on send endpoint: %v", err)
	}
	if err := sep.Send(nil, rep.Addr(), 0); err == nil {
		t.Fatal("Send(nil) accepted")
	}
	if err := sep.Send(m, rep.Addr(), 1000); err == nil {
		t.Fatal("oversize send accepted")
	}
	if _, ok := sep.Receive(); ok {
		t.Fatal("Receive on send endpoint returned")
	}
	bm, _ := b.AllocBuffer()
	if err := sep.Send(bm, rep.Addr(), 0); err == nil {
		t.Fatal("foreign-domain message accepted")
	}
}

func TestQueueFull(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(2)
	rep, _ := b.NewRecvEndpoint(2)
	// Without pumping, the queue fills at its depth.
	for i := 0; i < 2; i++ {
		m, _ := a.AllocBuffer()
		if err := sep.Send(m, rep.Addr(), 1); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := a.AllocBuffer()
	if err := sep.Send(m, rep.Addr(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: %v", err)
	}
	// The rejected buffer is still usable.
	pump(a, b)
	sep.Acquire()
	sep.Acquire()
	if err := sep.Send(m, rep.Addr(), 1); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

func TestDropsAndReadAndReset(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(8)
	rep, _ := b.NewRecvEndpoint(8)
	for i := 0; i < 3; i++ {
		m, _ := a.AllocBuffer()
		if err := sep.Send(m, rep.Addr(), 1); err != nil {
			t.Fatal(err)
		}
	}
	pump(a, b)
	if got := rep.Drops(); got != 3 {
		t.Fatalf("Drops = %d", got)
	}
	if got := rep.ReadAndResetDrops(); got != 3 {
		t.Fatalf("ReadAndResetDrops = %d", got)
	}
	if got := rep.Drops(); got != 0 {
		t.Fatalf("Drops after reset = %d", got)
	}
}

// TestPerBufferCompletion: a sent buffer comes back through its send
// queue, and Acquire records whether the engine sent or refused it.
func TestPerBufferCompletion(t *testing.T) {
	doms := newCluster(t, 2, Config{AllowedNodes: []wire.NodeID{1}, Engine: engine.Config{ValidityChecks: true}})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	rb, _ := b.AllocBuffer()
	rep.Post(rb)
	sb, _ := a.AllocBuffer()
	if err := sep.Send(sb, rep.Addr(), 4); err != nil {
		t.Fatal(err)
	}
	if _, ok := sep.Acquire(); ok {
		t.Fatal("send buffer acquired before the engine ran")
	}
	pump(a, b)
	if got, ok := sep.Acquire(); !ok || got != sb {
		t.Fatalf("Acquire = %v, %v; want the sent buffer", got, ok)
	}
	if sb.Dropped() {
		t.Fatal("successful send marked dropped")
	}
	if got, ok := rep.Receive(); !ok || got != rb {
		t.Fatalf("Receive = %v, %v; want the posted buffer", got, ok)
	}

	barred, _ := wire.MakeAddr(2, 0, 1) // node 2 is not in AllowedNodes
	if err := sep.Send(sb, barred, 4); err != nil {
		t.Fatal(err)
	}
	pump(a, b)
	if got, ok := sep.Acquire(); !ok || got != sb || !sb.Dropped() {
		t.Fatalf("Acquire = %v, %v, dropped %v; want the refused buffer, dropped", got, ok, sb.Dropped())
	}
}

func TestLockedVariants(t *testing.T) {
	doms := newCluster(t, 2, Config{NumBuffers: 128})
	a, b := doms[0], doms[1]
	a.Start()
	b.Start()
	const senders, per = 4, 10
	sep, _ := a.NewSendEndpoint(16)
	rep, _ := b.NewRecvEndpoint(64)

	// Post a window that holds every message before any sender starts:
	// the senders are not throttled, and the optimistic protocol discards
	// whatever outruns the receiver's reposting.
	if rep.QueueDepth() < senders*per {
		t.Fatalf("receive window %d cannot hold %d sends", rep.QueueDepth(), senders*per)
	}
	for {
		m, err := b.AllocBuffer()
		if err != nil {
			t.Fatal(err)
		}
		if rep.PostLocked(m) != nil {
			b.FreeBuffer(m)
			break
		}
	}

	// Several threads share one endpoint through the locked interface.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var m *Message
				for {
					var err error
					m, err = a.AllocBuffer()
					if err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				m.Payload()[0] = 0x5A
				for {
					err := sep.SendLocked(m, rep.Addr(), 1)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Error(err)
						return
					}
					// Reclaim completed sends to make space.
					if back, ok := sep.AcquireLocked(); ok {
						a.FreeBuffer(back)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	// Receiver: keep buffers posted, count deliveries. Exit early if
	// every outstanding message is accounted for as a drop — waiting
	// out the deadline would only delay the failure report.
	recvDone := make(chan int)
	go func() {
		got := 0
		deadline := time.Now().Add(10 * time.Second)
		for got+int(rep.Drops()) < senders*per && time.Now().Before(deadline) {
			for {
				m, err := b.AllocBuffer()
				if err != nil {
					break
				}
				if rep.PostLocked(m) != nil {
					b.FreeBuffer(m)
					break
				}
			}
			if m, ok := rep.ReceiveLocked(); ok {
				if m.Payload()[0] != 0x5A {
					t.Error("corrupt payload")
				}
				got++
				b.FreeBuffer(m)
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
		recvDone <- got
	}()
	wg.Wait()
	if got := <-recvDone; got != senders*per {
		t.Fatalf("received %d/%d (drop counter: %d)", got, senders*per, rep.Drops())
	}
}

func TestReceiveBlockWakesOnArrival(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	a.Start()
	b.Start()
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	rb, _ := b.AllocBuffer()
	rep.Post(rb)

	got := make(chan *Message, 1)
	go func() {
		m, err := rep.ReceiveBlock(5, time.Time{})
		if err != nil {
			t.Error(err)
		}
		got <- m
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver block
	sb, _ := a.AllocBuffer()
	n := copy(sb.Payload(), "wake")
	if err := sep.Send(sb, rep.Addr(), n); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload()[:m.Len()]) != "wake" {
			t.Fatalf("payload = %q", m.Payload()[:m.Len()])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked receiver never woke")
	}
}

func TestReceiveBlockWrongType(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	sep, _ := doms[0].NewSendEndpoint(4)
	if _, err := sep.ReceiveBlock(0, time.Time{}); err != ErrWrongType {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupReceive(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(8)
	rep1, _ := b.NewRecvEndpoint(4)
	rep2, _ := b.NewRecvEndpoint(4)
	g, err := b.NewGroup(rep1, rep2)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Members()) != 2 {
		t.Fatal("members wrong")
	}
	if _, _, ok := g.Receive(); ok {
		t.Fatal("empty group received")
	}
	for _, rep := range []*Endpoint{rep1, rep2} {
		m, _ := b.AllocBuffer()
		rep.Post(m)
	}
	for i, rep := range []*Endpoint{rep2, rep1} {
		m, _ := a.AllocBuffer()
		m.Payload()[0] = byte(i)
		sep.Send(m, rep.Addr(), 1)
	}
	pump(a, b)
	seen := map[byte]*Endpoint{}
	for i := 0; i < 2; i++ {
		m, e, ok := g.Receive()
		if !ok {
			t.Fatalf("group receive %d failed", i)
		}
		seen[m.Payload()[0]] = e
	}
	if seen[0] != rep2 || seen[1] != rep1 {
		t.Fatal("messages attributed to wrong endpoints")
	}
	if _, _, ok := g.Receive(); ok {
		t.Fatal("phantom group message")
	}
}

func TestGroupValidation(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	if _, err := a.NewGroup(); err != ErrEmptyGroup {
		t.Fatalf("empty group: %v", err)
	}
	sep, _ := a.NewSendEndpoint(4)
	if _, err := a.NewGroup(sep); err == nil {
		t.Fatal("send endpoint accepted in group")
	}
	repB, _ := b.NewRecvEndpoint(4)
	if _, err := a.NewGroup(repB); err == nil {
		t.Fatal("foreign-domain endpoint accepted in group")
	}
}

func TestGroupReceiveBlock(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	a.Start()
	b.Start()
	sep, _ := a.NewSendEndpoint(4)
	rep1, _ := b.NewRecvEndpoint(4)
	rep2, _ := b.NewRecvEndpoint(4)
	g, _ := b.NewGroup(rep1, rep2)
	for _, rep := range []*Endpoint{rep1, rep2} {
		m, _ := b.AllocBuffer()
		rep.Post(m)
	}
	type result struct {
		m *Message
		e *Endpoint
	}
	got := make(chan result, 1)
	go func() {
		m, e, err := g.ReceiveBlock(1, time.Time{})
		if err != nil {
			t.Error(err)
		}
		got <- result{m, e}
	}()
	time.Sleep(20 * time.Millisecond)
	sb, _ := a.AllocBuffer()
	sep.Send(sb, rep2.Addr(), 3)
	select {
	case r := <-got:
		if r.e != rep2 {
			t.Fatal("wrong endpoint attributed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group block never woke")
	}
	if g.Drops() != 0 {
		t.Fatalf("drops = %d", g.Drops())
	}
}

func TestCloseSemantics(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	d := doms[0]
	d.Start()
	d.Close()
	d.Close() // idempotent
	if _, err := d.AllocBuffer(); err != ErrClosed {
		t.Fatalf("alloc after close: %v", err)
	}
	if _, err := d.NewSendEndpoint(4); err != ErrClosed {
		t.Fatalf("endpoint after close: %v", err)
	}
}

func TestEndpointFreeInvalidatesAddr(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	stale := rep.Addr()
	if err := rep.Free(); err != nil {
		t.Fatal(err)
	}
	m, _ := a.AllocBuffer()
	sep.Send(m, stale, 1)
	pump(a, b)
	if st := b.Engine().Stats(); st.AddrDrops != 1 {
		t.Fatalf("stale send not dropped: %+v", st)
	}
}

func TestPendingDepths(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	m, _ := a.AllocBuffer()
	sep.Send(m, rep.Addr(), 1)
	toProc, toAcq := sep.Pending()
	if toProc != 1 || toAcq != 0 {
		t.Fatalf("pending = %d,%d", toProc, toAcq)
	}
	pump(a, b)
	toProc, toAcq = sep.Pending()
	if toProc != 0 || toAcq != 1 {
		t.Fatalf("pending after pump = %d,%d", toProc, toAcq)
	}
	if sep.QueueDepth() != 4 {
		t.Fatalf("QueueDepth = %d", sep.QueueDepth())
	}
}

// Multiple cooperating applications share one communication buffer by
// dividing its endpoints (paper §Architecture and Design).
func TestTwoAppsShareDomain(t *testing.T) {
	doms := newCluster(t, 2, Config{NumBuffers: 64})
	a, b := doms[0], doms[1]
	a.Start()
	b.Start()

	// App 1 and App 2 on node b, separate endpoints and traffic classes.
	repTracks, _ := b.NewRecvEndpoint(8)
	repMaint, _ := b.NewRecvEndpoint(8)
	for i := 0; i < 8; i++ {
		m1, _ := b.AllocBuffer()
		repTracks.Post(m1)
		m2, _ := b.AllocBuffer()
		repMaint.Post(m2)
	}
	sepT, _ := a.NewSendEndpoint(8)
	sepM, _ := a.NewSendEndpoint(8)

	var wg sync.WaitGroup
	recv := func(rep *Endpoint, want string, count int) {
		defer wg.Done()
		got := 0
		deadline := time.Now().Add(10 * time.Second)
		for got < count && time.Now().Before(deadline) {
			if m, ok := rep.Receive(); ok {
				if string(m.Payload()[:m.Len()]) != want {
					t.Errorf("class cross-talk: %q on %q endpoint", m.Payload()[:m.Len()], want)
				}
				got++
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if got != count {
			t.Errorf("%s: received %d/%d", want, got, count)
		}
	}
	wg.Add(2)
	go recv(repTracks, "track", 4)
	go recv(repMaint, "maint", 4)
	send := func(sep *Endpoint, dst Addr, payload string, count int) {
		for i := 0; i < count; i++ {
			m, err := a.AllocBuffer()
			if err != nil {
				t.Error(err)
				return
			}
			n := copy(m.Payload(), payload)
			for sep.Send(m, dst, n) != nil {
				time.Sleep(time.Millisecond)
			}
		}
	}
	send(sepT, repTracks.Addr(), "track", 4)
	send(sepM, repMaint.Addr(), "maint", 4)
	wg.Wait()
}

func TestMessageSizeSweepConfigs(t *testing.T) {
	// The Figure 4 sweep varies the boot-time fixed message size;
	// every size in the sweep must produce a working domain.
	for size := 64; size <= 512; size += 32 {
		size := size
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			doms := newCluster(t, 2, Config{MessageSize: size})
			a, b := doms[0], doms[1]
			sep, _ := a.NewSendEndpoint(4)
			rep, _ := b.NewRecvEndpoint(4)
			rb, _ := b.AllocBuffer()
			rep.Post(rb)
			sb, _ := a.AllocBuffer()
			payload := sb.Payload()
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := sep.Send(sb, rep.Addr(), len(payload)); err != nil {
				t.Fatal(err)
			}
			pump(a, b)
			m, ok := rep.Receive()
			if !ok || m.Len() != size-8 {
				t.Fatalf("got %v len %d, want %d", ok, m.Len(), size-8)
			}
			for i, v := range m.Payload()[:m.Len()] {
				if v != byte(i) {
					t.Fatalf("payload[%d] = %d", i, v)
				}
			}
		})
	}
}

func TestCloseWakesBlockedReceiver(t *testing.T) {
	doms := newCluster(t, 1, Config{})
	d := doms[0]
	d.Start()
	rep, _ := d.NewRecvEndpoint(4)
	errc := make(chan error, 1)
	go func() {
		_, err := rep.ReceiveBlock(1, time.Time{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it block
	d.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("ReceiveBlock after close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked receiver not released by Close")
	}
}

func TestCloseWakesBlockedGroup(t *testing.T) {
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
	time.Sleep(20 * time.Millisecond)
	d.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("group ReceiveBlock after close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked group not released by Close")
	}
}

func TestSendFlagsDelivered(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	rb, _ := b.AllocBuffer()
	rep.Post(rb)
	sb, _ := a.AllocBuffer()
	n := copy(sb.Payload(), "urgent")
	if err := sep.SendFlags(sb, rep.Addr(), n, wire.FlagUrgent|3); err != nil {
		t.Fatal(err)
	}
	pump(a, b)
	m, ok := rep.Receive()
	if !ok {
		t.Fatal("no delivery")
	}
	if m.Flags() != (wire.FlagUrgent | 3) {
		t.Fatalf("flags = %#x", m.Flags())
	}
	if wire.Priority(m.Flags()) != 3 {
		t.Fatalf("priority = %d", wire.Priority(m.Flags()))
	}
}

func TestGroupDropsAggregate(t *testing.T) {
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(8)
	rep1, _ := b.NewRecvEndpoint(4)
	rep2, _ := b.NewRecvEndpoint(4)
	g, _ := b.NewGroup(rep1, rep2)
	// No buffers posted anywhere: every send is a counted drop.
	for _, rep := range []*Endpoint{rep1, rep2} {
		m, _ := a.AllocBuffer()
		sep.Send(m, rep.Addr(), 1)
	}
	pump(a, b)
	if got := g.Drops(); got != 2 {
		t.Fatalf("group drops = %d, want 2", got)
	}
}

func TestGroupFairnessUnderSaturation(t *testing.T) {
	// One member with a *continuously refilled* backlog must not starve
	// the others: the round-robin scan resumes after the last successful
	// member, so a quiet member's message is always served within one
	// full rotation even while the busy member never drains. (The
	// one-shot variant lives in soak_test.go; this is the sustained
	// saturation scenario.)
	doms := newCluster(t, 2, Config{NumBuffers: 64})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(32)
	busy, _ := b.NewRecvEndpoint(16)
	quiet1, _ := b.NewRecvEndpoint(4)
	quiet2, _ := b.NewRecvEndpoint(4)
	g, err := b.NewGroup(busy, quiet1, quiet2)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(rep *Endpoint, n int) {
		for i := 0; i < n; i++ {
			rb, err := b.AllocBuffer()
			if err != nil {
				t.Fatal(err)
			}
			rep.Post(rb)
			sb, err := a.AllocBuffer()
			if err != nil {
				t.Fatal(err)
			}
			if err := sep.Send(sb, rep.Addr(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Saturate the busy member, trickle two messages into each quiet one.
	fill(busy, 12)
	fill(quiet1, 2)
	fill(quiet2, 2)
	pump(a, b)

	counts := map[*Endpoint]int{}
	var order []*Endpoint
	for {
		_, e, ok := g.Receive()
		if !ok {
			break
		}
		counts[e]++
		order = append(order, e)
		// Keep the busy member saturated while the quiet ones still
		// have pending messages — the starvation scenario proper.
		if counts[quiet1]+counts[quiet2] < 4 {
			fill(busy, 1)
			pump(a, b)
		}
	}
	if counts[quiet1] != 2 || counts[quiet2] != 2 {
		t.Fatalf("quiet members got %d/%d messages, want 2/2", counts[quiet1], counts[quiet2])
	}
	// Fairness bound: with three members, each quiet message must land
	// within one rotation — i.e. no member is served more than once
	// between two consecutive successful scans of another non-empty
	// member. Equivalently, both quiet members finish within the first
	// 2*len(members) receives despite the busy member never draining.
	window := 2 * len(g.Members())
	if len(order) < window {
		t.Fatalf("only %d receives recorded", len(order))
	}
	got := map[*Endpoint]int{}
	for _, e := range order[:window] {
		got[e]++
	}
	if got[quiet1] != 2 || got[quiet2] != 2 {
		t.Fatalf("quiet members served %d/%d times in first %d receives, want 2/2 (order shows starvation)",
			got[quiet1], got[quiet2], window)
	}
	// And no runs of the busy member longer than one while others waited.
	for i := 1; i < window; i++ {
		if order[i] == busy && order[i-1] == busy {
			t.Fatalf("busy member served twice in a row at position %d while quiet members had backlog", i)
		}
	}
}

func TestReceiveBlockFastPath(t *testing.T) {
	// A message already waiting must return without touching the
	// kernel registration machinery.
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	rb, _ := b.AllocBuffer()
	rep.Post(rb)
	sb, _ := a.AllocBuffer()
	sep.Send(sb, rep.Addr(), 1)
	pump(a, b)
	done := make(chan struct{})
	go func() {
		if _, err := rep.ReceiveBlock(1, time.Time{}); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("fast path blocked")
	}
}

// TestStartedEnginesStreamFIFO streams messages between two fabric
// domains whose engines run on their own goroutines, sender and
// receiver each an application goroutine of its own. The window is
// wider than the engine's send quantum, so a pass finds a run of
// queued sends; the race detector checks that the queue pointers alone
// order every plain store to a slot and a meta word. Every message
// arrives once, in order, and none is refused or discarded.
func TestStartedEnginesStreamFIFO(t *testing.T) {
	const (
		total  = 10000
		window = 24 // > SendQuantum (8)
		depth  = 32 // both queues; the receiver keeps depth buffers posted
	)
	doms := newCluster(t, 2, Config{NumBuffers: 2 * depth})
	a, b := doms[0], doms[1]
	if q := a.Engine().Config().SendQuantum; window <= q {
		t.Fatalf("window %d not above SendQuantum %d", window, q)
	}
	sep, err := a.NewSendEndpoint(depth)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.NewRecvEndpoint(depth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		m, err := b.AllocBuffer()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Post(m); err != nil {
			t.Fatal(err)
		}
	}
	a.Start()
	b.Start()

	deadline := time.Now().Add(60 * time.Second)
	var received atomic.Int64
	errs := make(chan error, 2)
	go func() { // receiver: check, count, repost
		for want := uint64(0); want < total; want++ {
			m, err := rep.ReceiveBlock(1, deadline)
			if err != nil {
				errs <- fmt.Errorf("receive %d: %w", want, err)
				return
			}
			if got := binary.LittleEndian.Uint64(m.Payload()); m.Len() != 8 || got != want {
				errs <- fmt.Errorf("receive %d: got message %d (%d bytes)", want, got, m.Len())
				return
			}
			received.Store(int64(want + 1))
			if err := rep.Post(m); err != nil {
				errs <- fmt.Errorf("repost %d: %w", want, err)
				return
			}
		}
		errs <- nil
	}()
	go func() { // sender: at most window messages ahead of the receiver
		var pool []*Message
		for i := 0; i < depth; i++ {
			m, err := a.AllocBuffer()
			if err != nil {
				errs <- err
				return
			}
			pool = append(pool, m)
		}
		// acquire waits for the next buffer the engine hands back.
		acquire := func() error {
			m, err := sep.AcquireBlock(1, deadline)
			if err != nil {
				return err
			}
			if m.Dropped() {
				return fmt.Errorf("send buffer %d refused", m.ID())
			}
			pool = append(pool, m)
			return nil
		}
		for i := uint64(0); i < total; i++ {
			for int64(i)-received.Load() >= window {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("send %d: receiver stalled at %d", i, received.Load())
					return
				}
				runtime.Gosched()
			}
			if len(pool) == 0 {
				if err := acquire(); err != nil {
					errs <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			m := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			binary.LittleEndian.PutUint64(m.Payload(), i)
			if err := sep.Send(m, rep.Addr(), 8); err != nil {
				errs <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		// Every buffer comes back, none of them refused.
		for len(pool) < depth {
			if err := acquire(); err != nil {
				errs <- fmt.Errorf("reclaim: %w", err)
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	b.Close()
	if got := received.Load(); got != total {
		t.Fatalf("received %d, want %d", got, total)
	}
	if drops := rep.Drops(); drops != 0 {
		t.Fatalf("receiver discarded %d", drops)
	}
	sa, sb := a.Engine().Stats(), b.Engine().Stats()
	if sa.Sent != total || sa.SendRefused != 0 || sb.Delivered != total || sb.RecvDrops != 0 {
		t.Fatalf("engine stats: sent %d refused %d, delivered %d recv drops %d; want %d, 0, %d, 0",
			sa.Sent, sa.SendRefused, sb.Delivered, sb.RecvDrops, total, total)
	}
}
