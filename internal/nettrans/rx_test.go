package nettrans

// Receive-path tests: the reader spins only while traffic flows and
// only with a spare P and CPU, parks once an idle link falls silent, and ends
// with Close wherever it is — spinning, parked, or still waiting for a
// hello.

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"flipc/internal/israce"
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

func TestTrySendFlushSendsAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts need a build without -race")
	}
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
	a, err := ListenConfig(Config{Node: 0, Addr: "127.0.0.1:0", MessageSize: 64, BatchWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Dial(1, sink.Addr().String()); err != nil {
		t.Fatal(err)
	}
	<-reading
	frame := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if !a.TrySend(1, frame) {
			t.Fatal("TrySend refused a frame on a live link")
		}
		a.FlushSends()
	})
	if allocs != 0 {
		t.Fatalf("TrySend+FlushSends: %v allocs per frame, want 0", allocs)
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
