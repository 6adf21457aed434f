package nettrans

// Receive-path tests: the reader spins only while traffic flows and
// only with a spare P and CPU, parks once an idle link falls silent, and ends
// with Close wherever it is — spinning, parked, or still waiting for a
// hello.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"flipc/internal/israce"
	"flipc/internal/wire"
)

// dialedPair returns transport a dialed into transport b.
func dialedPair(t *testing.T) (a, b *Transport) {
	t.Helper()
	a, b = chaosListen(t, 0, fastReconnect()), chaosListen(t, 1, fastReconnect())
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	waitFor(t, 2*time.Second, "goroutines back to the baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

func TestIdleLinkParksOnceAndStaysParked(t *testing.T) {
	a, b := dialedPair(t)
	sendSeqRetry(t, a, 1, 7)
	pollUntil(t, b, 2*time.Second)
	// The reader parked once before the frame and once after it (at
	// most spinWindow later).
	waitFor(t, time.Second, "the reader to park", func() bool { return b.Stats().RxParks >= 2 })
	parks := b.Stats().RxParks
	time.Sleep(20 * time.Millisecond)
	if got := b.Stats().RxParks; got != parks {
		t.Fatalf("RxParks moved %d -> %d over 20ms of silence", parks, got)
	}
	before := cpuTime(t)
	time.Sleep(100 * time.Millisecond)
	if used := cpuTime(t) - before; used >= 5*time.Millisecond {
		t.Fatalf("process used %v of CPU over 100ms with an idle link", used)
	}
}

// countingRaw is a syscall.RawConn that counts and refuses non-blocking
// reads, so a spin falls straight through to the blocking read.
type countingRaw struct{ polls *int }

func (r countingRaw) Control(func(uintptr)) error    { return nil }
func (r countingRaw) Read(func(uintptr) bool) error  { *r.polls++; return errors.New("refused") }
func (r countingRaw) Write(func(uintptr) bool) error { return nil }

type pollConn struct {
	net.Conn
	raw countingRaw
}

func (c pollConn) SyscallConn() (syscall.RawConn, error) { return c.raw, nil }

func TestReaderSpinsOnlyWithASpareP(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		near, far := net.Pipe()
		polls := 0
		var parks atomic.Uint64
		r := newRxConn(pollConn{near, countingRaw{&polls}}, &parks)
		go func() {
			for i := 0; i < 3; i++ {
				far.Write([]byte{byte(i)})
			}
		}()
		buf := make([]byte, 8)
		for i := 0; i < 3; i++ {
			if n, err := r.Read(buf); n != 1 || err != nil {
				t.Fatalf("GOMAXPROCS=%d: read %d: n=%d err=%v", procs, i, n, err)
			}
		}
		runtime.GOMAXPROCS(prev)
		near.Close()
		far.Close()
		// Reads 2 and 3 follow a read that returned bytes: they try one
		// non-blocking read first, but only when another P and CPU exist.
		want := 0
		if procs > 1 && runtime.NumCPU() > 1 {
			want = 2
		}
		if polls != want || parks.Load() != 3 {
			t.Fatalf("GOMAXPROCS=%d: %d non-blocking reads (want %d), %d parks (want 3)",
				procs, polls, want, parks.Load())
		}
	}
}

func TestCloseDuringSpinEndsReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	base := runtime.NumGoroutine()
	a, b := dialedPair(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for frame := make([]byte, 64); ; {
			select {
			case <-stop:
				return
			default:
				a.TrySend(1, frame)
				b.Poll()
			}
		}
	}()
	waitFor(t, 2*time.Second, "traffic", func() bool { return b.Stats().Delivered > 1000 })
	b.Close()
	close(stop)
	wg.Wait()
	a.Close()
	if a.openConns() != 0 || b.openConns() != 0 {
		t.Fatalf("open conns after Close: %d, %d", a.openConns(), b.openConns())
	}
	waitGoroutines(t, base)
}

// A dialer that never sends its hello must not outlive Close.
func TestCloseEndsConnWithoutHello(t *testing.T) {
	base := runtime.NumGoroutine()
	tr, err := Listen(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	waitFor(t, time.Second, "the conn awaiting its hello to be tracked", func() bool {
		return tr.openConns() == 1
	})
	tr.Close()
	raw.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the half-open conn after Close: %v, want EOF", err)
	}
	waitGoroutines(t, base)
}

// TestTrySendFlushSendsAllocs drives both the corked and the uncorked
// transport with a bulk and a control-class frame per run: neither
// allocates, and only the corked one sends a frame alone (CtlBypass) or
// holds a run (FlushHeld) — aggregation off is a one-frame cap, not a
// second path with counters of its own.
func TestTrySendFlushSendsAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts need a build without -race")
	}
	for _, cfg := range []Config{
		{BatchWrites: true},
		// A deadline no run could wait out: with a one-frame cap none is
		// ever held, so FlushHeld stays 0.
		{BatchWrites: false, FlushDeadline: time.Hour},
	} {
		t.Run(fmt.Sprintf("BatchWrites=%v", cfg.BatchWrites), func(t *testing.T) {
			// A raw sink, so that no receiving transport's frame copy is counted.
			sink, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			reading := make(chan struct{})
			go func() {
				c, err := sink.Accept()
				if err != nil {
					close(reading)
					return
				}
				defer c.Close()
				buf := make([]byte, 64<<10)
				for i := 0; ; i++ {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if i == 0 {
						close(reading)
					}
				}
			}()
			cfg.Node, cfg.Addr, cfg.MessageSize = 0, "127.0.0.1:0", 64
			a, err := ListenConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.Dial(1, sink.Addr().String()); err != nil {
				t.Fatal(err)
			}
			<-reading
			bulk, ctl := make([]byte, 64), make([]byte, 64)
			ctl[6] = wire.FlagCtl
			var runs uint64
			allocs := testing.AllocsPerRun(200, func() {
				runs++
				if !a.TrySend(1, bulk) || !a.TrySend(1, ctl) {
					t.Fatal("TrySend refused a frame on a live link")
				}
				a.FlushSends()
			})
			if allocs != 0 {
				t.Fatalf("TrySend+FlushSends: %v allocs per run, want 0", allocs)
			}
			st := a.Stats()
			wantBypass := uint64(0)
			if cfg.BatchWrites {
				wantBypass = runs
			}
			if st.CtlBypass != wantBypass || st.FlushHeld != 0 {
				t.Fatalf("CtlBypass %d, FlushHeld %d; want %d, 0", st.CtlBypass, st.FlushHeld, wantBypass)
			}
		})
	}
}

// TestReceiveCountersOwnCacheLines pins the Transport layout: the
// counters the socket readers store on every frame sit a full cache
// line away from every other field and from the end of the object, so
// neither the send path nor a neighbouring object shares their line,
// wherever the allocator places the Transport.
func TestReceiveCountersOwnCacheLines(t *testing.T) {
	var tr Transport
	first, last := unsafe.Offsetof(tr.delivered), unsafe.Offsetof(tr.rxParks)
	if unsafe.Offsetof(tr.rxDrops) < first || unsafe.Offsetof(tr.rxDrops) > last {
		t.Fatalf("rxDrops at %d, outside the receive group [%d, %d]", unsafe.Offsetof(tr.rxDrops), first, last)
	}
	end := last + unsafe.Sizeof(tr.rxParks)
	if before := first - (unsafe.Offsetof(tr.pendingFrames) + unsafe.Sizeof(tr.pendingFrames)); before < 64 {
		t.Errorf("%d bytes between the send-side fields and delivered, want >= 64", before)
	}
	if after := unsafe.Sizeof(tr) - end; after < 64 {
		t.Errorf("%d bytes after rxParks, want >= 64", after)
	}
}

// TestBurstReceiveAllocs: eight frames corked into one FlushSends reach
// Poll as one burst, one heap object for all eight, where a copy per
// frame cost eight. The send side allocates nothing
// (TestTrySendFlushSendsAllocs).
func TestBurstReceiveAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts need a build without -race")
	}
	const frames = 8
	a, b := dialBatchPair(t, Config{MessageSize: 128})
	frame := make([]byte, 128)
	run := func() {
		for range frames {
			if !a.TrySend(1, frame) {
				t.Fatal("TrySend refused a frame on a live link")
			}
		}
		a.FlushSends()
		deadline := time.Now().Add(5 * time.Second)
		for got := 0; got < frames; {
			if _, ok := b.Poll(); ok {
				got++
			} else if time.Now().After(deadline) {
				t.Fatalf("polled %d/%d frames (stats %+v)", got, frames, b.Stats())
			} else {
				runtime.Gosched()
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
		t.Fatalf("%v allocs per corked run of %d frames, want <= 2", allocs, frames)
	}
}

// TestBurstMeetsFullInboxKeepsPrefix: a corked run of 8 that meets an
// inbox with room for 3 delivers exactly the first 3, in order, and
// counts the other 5 dropped.
func TestBurstMeetsFullInboxKeepsPrefix(t *testing.T) {
	const frames = 8
	a, err := ListenConfig(Config{Node: 0, Addr: "127.0.0.1:0", MessageSize: 64, BatchWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenConfig(Config{Node: 1, Addr: "127.0.0.1:0", MessageSize: 64, InboxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	for seq := range uint32(frames) {
		if !a.TrySend(1, seqFrame(seq)) {
			t.Fatal("TrySend refused a frame on a live link")
		}
	}
	a.FlushSends()
	waitFor(t, 5*time.Second, "every frame delivered or dropped", func() bool {
		st := b.Stats()
		return st.Delivered+st.RxDrops == frames
	})
	if st := b.Stats(); st.Delivered != 3 || st.RxDrops != frames-3 {
		t.Fatalf("delivered %d, dropped %d; want 3, %d", st.Delivered, st.RxDrops, frames-3)
	}
	var got []uint32
	drainSeqs(t, b, &got, 3, time.Second)
	if _, ok := b.Poll(); ok || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("polled %v (and more: %v), want [0 1 2]", got, ok)
	}
}

// TestPolledFrameAppendKeepsNextFrame: frames of one burst share its
// slice, so a polled frame's capacity must end with it, or an append to
// it writes into the next frame.
func TestPolledFrameAppendKeepsNextFrame(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	next := bytes.Repeat([]byte{2}, 64)
	tr.enqueue(append(bytes.Repeat([]byte{1}, 64), next...), 0)
	f, _ := tr.Poll()
	_ = append(f, 0xEE)
	if g, ok := tr.Poll(); !ok || !bytes.Equal(g, next) {
		t.Fatalf("next frame %x after an append to the one before it", g)
	}
}

// TestCorruptPreambleMidBurst: a burst whose 5th preamble is corrupt
// delivers the 4 frames in front of it, then fails the connection.
func TestCorruptPreambleMidBurst(t *testing.T) {
	b := chaosListen(t, 1, fastReconnect())
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0, 0, 0, 0}); err != nil { // hello from node 0
		t.Fatal(err)
	}
	var stream []byte
	for seq := range uint32(8) {
		magic := uint16(preambleMagic)
		if seq == 4 {
			magic ^= 0xFFFF
		}
		stream = append(append(stream, mkPreamble(magic, 64)...), seqFrame(seq)...)
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on the sender's side: %v, want the connection closed", err)
	}
	waitFor(t, 2*time.Second, "the link to fail", func() bool { return b.PeerState(0) == PeerReconnecting })
	if st := b.Stats(); st.Delivered != 4 || st.RxDrops != 0 {
		t.Fatalf("delivered %d, dropped %d; want 4, 0", st.Delivered, st.RxDrops)
	}
	var got []uint32
	drainSeqs(t, b, &got, 4, time.Second)
	if _, ok := b.Poll(); ok || got[0] != 0 || got[3] != 3 || b.openConns() != 0 {
		t.Fatalf("polled %v (and more: %v), %d conns open; want [0 1 2 3], none", got, ok, b.openConns())
	}
}
