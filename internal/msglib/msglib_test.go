package msglib

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/israce"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

func newPair(t *testing.T) (*core.Domain, *core.Domain) {
	t.Helper()
	fabric := interconnect.NewFabric(256)
	mk := func(node wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 64, NumBuffers: 64}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	return mk(0), mk(1)
}

func pump(doms ...*core.Domain) {
	for pass := 0; pass < 200; pass++ {
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

func TestOutboxInboxRoundTrip(t *testing.T) {
	a, b := newPair(t)
	out, err := NewOutbox(a, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInbox(b, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One call to send, one to receive — the buffer management the
	// paper says consumed half of an application's FLIPC calls is gone.
	if err := out.Send(in.Addr(), []byte("one-call send")); err != nil {
		t.Fatal(err)
	}
	pump(a, b)
	p, flags, ok := in.Receive()
	if !ok || string(p) != "one-call send" || flags != 0 {
		t.Fatalf("Receive = %q,%v,%v", p, flags, ok)
	}
	if out.Sent() != 1 || in.Received() != 1 {
		t.Fatalf("counters: %d/%d", out.Sent(), in.Received())
	}
	if in.Drops() != 0 {
		t.Fatal("drops nonzero")
	}
}

// The convenience layer adds nothing to the handle path: a send reclaims
// and reuses pooled handles, and a receive copies the payload into the
// inbox's own buffer. The engine passes in between are not counted.
func TestSendReceiveAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const rounds = 64
	a, b := newPair(t)
	out, err := NewOutbox(a, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInbox(b, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sixteen byte msg")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var m0, m1, m2, m3 runtime.MemStats
	var send, recv uint64
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&m0)
		err := out.Send(in.Addr(), payload)
		runtime.ReadMemStats(&m1)
		a.Poll()
		b.Poll()
		runtime.ReadMemStats(&m2)
		_, _, ok := in.Receive()
		runtime.ReadMemStats(&m3)
		if err != nil || !ok {
			t.Fatalf("round %d: Send = %v, Receive ok = %v", i, err, ok)
		}
		send += m1.Mallocs - m0.Mallocs
		recv += m3.Mallocs - m2.Mallocs
	}
	// Whole objects per round, as AllocsPerRun reports them: a stray
	// runtime allocation during the run is not the layer's.
	if send/rounds != 0 || recv/rounds != 0 {
		t.Fatalf("%d rounds: Send allocated %d objects, Receive %d (want 0 a round each)",
			rounds, send, recv)
	}
}

// TestNewBoxAllocs: an outbox makes its pool at its final size and an
// inbox posts its buffers without a per-buffer object, so each costs its
// endpoint's two objects plus its own struct and one slice.
func TestNewBoxAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 2 // AllocsPerRun builds one more, as a warm-up
	tr, err := interconnect.NewFabric(16).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{
		MessageSize: 64, NumBuffers: 2 * (runs + 1) * 64, MaxEndpoints: 2 * (runs + 1), DefaultQueueDepth: 64,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := NewOutbox(d, 0, 8); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("NewOutbox(d, 0, 8) allocates %v objects, want <= 4", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := NewInbox(d, 64, 64); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("NewInbox(d, 64, 64) allocates %v objects, want <= 4", n)
	}
}

func TestOutboxRecyclesBuffers(t *testing.T) {
	a, b := newPair(t)
	out, _ := NewOutbox(a, 4, 2) // tiny pool
	in, _ := NewInbox(b, 16, 16)
	// Send many more messages than the pool size; recycling must keep
	// it going as long as we pump between bursts. Drain the inbox as we
	// go — its 16-buffer window bounds undrained arrivals (optimistic
	// transport drops beyond it, by design).
	got := 0
	for i := 0; i < 20; i++ {
		for {
			err := out.Send(in.Addr(), []byte{byte(i)})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBackpressure) {
				t.Fatal(err)
			}
			pump(a, b)
		}
		pump(a, b)
		for {
			p, _, ok := in.Receive()
			if !ok {
				break
			}
			if p[0] != byte(got) {
				t.Fatalf("message %d out of order (%d)", got, p[0])
			}
			got++
		}
	}
	pump(a, b)
	for {
		p, _, ok := in.Receive()
		if !ok {
			break
		}
		if p[0] != byte(got) {
			t.Fatalf("message %d out of order (%d)", got, p[0])
		}
		got++
	}
	if got != 20 {
		t.Fatalf("received %d/20", got)
	}
	if !out.Flush() {
		t.Fatal("Flush reports pending work after drain")
	}
}

func TestOutboxBackpressure(t *testing.T) {
	a, _ := newPair(t)
	out, _ := NewOutbox(a, 4, 1)
	dst, _ := wire.MakeAddr(1, 0, 1)
	if err := out.Send(dst, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Pool exhausted, engine not pumped: must report backpressure.
	if err := out.Send(dst, []byte("y")); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v", err)
	}
}

// TestOutboxCloseReturnsBuffers: Close refuses while a send is in
// flight, then frees the endpoint and returns every pooled buffer.
func TestOutboxCloseReturnsBuffers(t *testing.T) {
	a, b := newPair(t)
	free := a.Buffer().FreeBufferCount()
	out, _ := NewOutbox(a, 4, 4)
	in, _ := NewInbox(b, 4, 4)
	if err := out.Send(in.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err == nil {
		t.Fatal("Close with a send in flight succeeded")
	}
	pump(a, b)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if got, eps := a.Buffer().FreeBufferCount(), activeEndpoints(a.Buffer()); got != free || eps != 0 {
		t.Fatalf("after Close: %d buffers free (want %d), %d endpoints", got, free, eps)
	}
}

// activeEndpoints counts the descriptor slots that read as allocated
// endpoints when opened as the engine opens them.
func activeEndpoints(b *commbuf.Buffer) int {
	n := 0
	for i := 0; ; i++ {
		if _, ok := b.EndpointCfgOffset(i); !ok {
			return n
		}
		if ep, err := b.OpenEndpoint(b.View(mem.ActorApp), i); err != nil || ep.Type() != commbuf.EndpointInvalid {
			n++
		}
	}
}

func TestOutboxValidation(t *testing.T) {
	a, _ := newPair(t)
	if _, err := NewOutbox(a, 4, 0); err == nil {
		t.Fatal("zero-buffer outbox accepted")
	}
	out, _ := NewOutbox(a, 4, 1)
	dst, _ := wire.MakeAddr(1, 0, 1)
	if err := out.Send(dst, make([]byte, 100)); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if out.Endpoint() == nil {
		t.Fatal("Endpoint nil")
	}
}

func TestInboxValidation(t *testing.T) {
	_, b := newPair(t)
	if _, err := NewInbox(b, 4, 0); err == nil {
		t.Fatal("zero-buffer inbox accepted")
	}
	in, _ := NewInbox(b, 4, 2)
	if in.Endpoint() == nil {
		t.Fatal("Endpoint nil")
	}
	if _, _, ok := in.Receive(); ok {
		t.Fatal("empty inbox received")
	}
}

func TestInboxZeroCopy(t *testing.T) {
	a, b := newPair(t)
	out, _ := NewOutbox(a, 4, 4)
	in, _ := NewInbox(b, 4, 2)
	out.Send(in.Addr(), []byte("zc"))
	pump(a, b)
	m, ok := in.ReceiveZeroCopy()
	if !ok || string(m.Payload()[:m.Len()]) != "zc" {
		t.Fatalf("zero copy receive failed")
	}
	in.Done(m)
	in.Done(nil) // harmless
	// The reposted buffer is usable again.
	out.Send(in.Addr(), []byte("again"))
	pump(a, b)
	p, _, ok := in.Receive()
	if !ok || string(p) != "again" {
		t.Fatalf("repost failed: %q %v", p, ok)
	}
}

func TestInboxReceiveBlock(t *testing.T) {
	a, b := newPair(t)
	a.Start()
	b.Start()
	out, _ := NewOutbox(a, 4, 4)
	in, _ := NewInbox(b, 4, 2)
	got := make(chan []byte, 1)
	go func() {
		p, _, err := in.ReceiveBlock(3, time.Time{})
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()
	time.Sleep(10 * time.Millisecond)
	if err := out.Send(in.Addr(), []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "blocked" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveBlock never woke")
	}
}

// SendBlock turns backpressure into a wait for the engine: with a
// one-buffer pool the second send waits until the first completes, and
// with the engine stopped it returns core.ErrTimeout at its deadline.
func TestOutboxSendBlock(t *testing.T) {
	a, b := newPair(t)
	out, _ := NewOutbox(a, 4, 1)
	in, _ := NewInbox(b, 4, 4)
	if err := out.Send(in.Addr(), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := out.Send(in.Addr(), []byte("second")); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("Send with the pool in flight = %v, want ErrBackpressure", err)
	}
	deadline := time.Now().Add(20 * time.Millisecond)
	err := out.SendBlock(in.Addr(), []byte("second"), 1, deadline)
	if !errors.Is(err, core.ErrTimeout) || time.Now().Before(deadline) {
		t.Fatalf("SendBlock with no engine = %v, want core.ErrTimeout at the deadline", err)
	}
	a.Start()
	b.Start()
	if err := out.SendBlock(in.Addr(), []byte("second"), 1, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "second"} {
		p, _, err := in.ReceiveBlock(1, time.Now().Add(5*time.Second))
		if err != nil || string(p) != want {
			t.Fatalf("received %q, %v; want %q", p, err, want)
		}
	}
	if out.Sent() != 2 {
		t.Fatalf("sent %d, want 2", out.Sent())
	}
}

func TestInboxAutoRepostKeepsWindow(t *testing.T) {
	a, b := newPair(t)
	out, _ := NewOutbox(a, 8, 8)
	in, _ := NewInbox(b, 8, 4)
	// 3 rounds of 4 messages: reposting must prevent any drops.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if err := out.Send(in.Addr(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		pump(a, b)
		for i := 0; i < 4; i++ {
			if _, _, ok := in.Receive(); !ok {
				t.Fatalf("round %d message %d missing", round, i)
			}
		}
	}
	if in.Drops() != 0 {
		t.Fatalf("drops = %d", in.Drops())
	}
}

// Property: any payload (within capacity) round-trips through
// Outbox/Inbox intact, including flags.
func TestQuickOutboxInboxRoundTrip(t *testing.T) {
	a, b := newPair(t)
	out, err := NewOutbox(a, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInbox(b, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(payload []byte, flags uint8) bool {
		if len(payload) > a.MaxPayload() {
			payload = payload[:a.MaxPayload()]
		}
		// Reserved transport bits (stamp, checksum), masked by wire.Encode.
		flags &^= wire.FlagStamped | wire.FlagChecksummed
		for {
			err := out.SendFlags(in.Addr(), payload, flags)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBackpressure) {
				return false
			}
			pump(a, b)
		}
		pump(a, b)
		got, gotFlags, ok := in.Receive()
		if !ok {
			return false
		}
		if gotFlags != flags || len(got) != len(payload) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
