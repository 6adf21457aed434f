package nettrans

import (
	"errors"
	"net"
	"testing"
	"time"

	"flipc/internal/flowctl"
	"flipc/internal/wire"
)

// failConn wraps a live connection so every Write fails while Close
// still tears down the real socket. Installing it as a peer's send
// path simulates a link dying exactly at a flush boundary.
type failConn struct{ net.Conn }

func (f failConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// dialBatchPair returns a batching transport a dialed into a plain
// transport b, with the link warmed up (first frame delivered).
func dialBatchPair(t *testing.T, cfg Config) (a, b *Transport) {
	t.Helper()
	cfg.Node = 0
	cfg.Addr = "127.0.0.1:0"
	if cfg.MessageSize == 0 {
		cfg.MessageSize = 64
	}
	cfg.BatchWrites = true
	a, err := ListenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = Listen(1, "127.0.0.1:0", cfg.MessageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestBatchBoundaryFailureConservation kills the connection exactly at
// a batch boundary: three frames are corked, and the fourth fills the
// batch and triggers the inline flush against a dead link. The refused
// fourth frame stays queued at the engine (TrySend returned false), so
// only the three corked frames may appear in FlushLost — counting the
// fourth too would record it both lost and, after the engine's retry,
// delivered, breaking sent = delivered + flush-lost.
func TestBatchBoundaryFailureConservation(t *testing.T) {
	a, b := dialBatchPair(t, Config{MaxBatchFrames: 4})

	deadline := time.Now().Add(2 * time.Second)
	for !a.TrySend(1, make([]byte, 64)) {
		if time.Now().After(deadline) {
			t.Fatal("first TrySend never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		if !a.TrySend(1, make([]byte, 64)) {
			t.Fatalf("TrySend %d refused", i)
		}
	}

	// Kill the send path under the peer lock, exactly as a mid-run
	// network failure would: the next write errors.
	p := a.lookup(1)
	p.mu.Lock()
	if p.conn == nil {
		p.mu.Unlock()
		t.Fatal("peer has no live connection")
	}
	p.conn = failConn{p.conn}
	p.mu.Unlock()

	if a.TrySend(1, make([]byte, 64)) {
		t.Fatal("TrySend succeeded through a dead connection")
	}

	st := a.Stats()
	if st.Sent != 3 {
		t.Fatalf("Sent = %d, want 3 (the refused frame must not be counted sent)", st.Sent)
	}
	if st.FlushLost != 3 {
		t.Fatalf("FlushLost = %d, want 3 (the refused frame must not be counted lost)", st.FlushLost)
	}
	if got := b.Stats().Delivered; got != 0 {
		t.Fatalf("Delivered = %d, want 0", got)
	}
	// Conservation at the boundary: every accepted frame is delivered
	// or flush-lost, exactly once.
	if st.Sent != b.Stats().Delivered+st.FlushLost {
		t.Fatalf("conservation violated: sent %d != delivered %d + flush-lost %d",
			st.Sent, b.Stats().Delivered, st.FlushLost)
	}
	if n := a.pendingFrames.Load(); n != 0 {
		t.Fatalf("pendingFrames = %d after teardown, want 0", n)
	}
}

// TestBatchWritesCtlBypass corks bulk frames and then sends a
// control-class frame: the control frame must reach the wire without
// any FlushSends call, flushing the corked run ahead of itself so
// per-pair ordering holds.
func TestBatchWritesCtlBypass(t *testing.T) {
	a, b := dialBatchPair(t, Config{MaxBatchFrames: 16})

	deadline := time.Now().Add(2 * time.Second)
	bulk := make([]byte, 64)
	bulk[0] = 1
	for !a.TrySend(1, bulk) {
		if time.Now().After(deadline) {
			t.Fatal("TrySend never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	bulk[0] = 2
	if !a.TrySend(1, bulk) {
		t.Fatal("second bulk TrySend refused")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := b.Poll(); ok {
		t.Fatal("bulk frame escaped the cork before any flush")
	}

	ctl := make([]byte, 64)
	ctl[0] = 3
	ctl[6] = wire.FlagCtl
	if !a.TrySend(1, ctl) {
		t.Fatal("control TrySend refused")
	}
	// No FlushSends: the bypass alone must deliver all three, corked
	// bulk first.
	for i, want := range []byte{1, 2, 3} {
		f := pollUntil(t, b, 2*time.Second)
		if f[0] != want {
			t.Fatalf("frame %d = %d, want %d (ctl bypass must preserve per-pair order)", i, f[0], want)
		}
	}
	st := a.Stats()
	if st.CtlBypass != 1 || st.Sent != 3 || st.FlushLost != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFlushDeadlineHoldsYoungCork configures a static flush deadline
// and checks that FlushSends leaves a young cork in place (counted
// FlushHeld) and flushes it once the oldest frame has aged past the
// deadline.
func TestFlushDeadlineHoldsYoungCork(t *testing.T) {
	a, b := dialBatchPair(t, Config{MaxBatchFrames: 64, FlushDeadline: 80 * time.Millisecond})

	deadline := time.Now().Add(2 * time.Second)
	for !a.TrySend(1, make([]byte, 64)) {
		if time.Now().After(deadline) {
			t.Fatal("TrySend never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	a.FlushSends()
	if _, ok := b.Poll(); ok {
		t.Fatal("frame flushed before the deadline")
	}
	if st := a.Stats(); st.FlushHeld != 1 {
		t.Fatalf("FlushHeld = %d, want 1", st.FlushHeld)
	}
	time.Sleep(100 * time.Millisecond)
	a.FlushSends()
	pollUntil(t, b, 2*time.Second)
}

// TestCreditFramesAcrossFlushBoundaries interleaves expedited credit
// frames with corked bulk traffic: every credit frame must arrive
// decodable and in order relative to the bulk frames sent before it —
// the flush boundary the bypass forces must not tear or reorder the
// stream.
func TestCreditFramesAcrossFlushBoundaries(t *testing.T) {
	a, b := dialBatchPair(t, Config{MaxBatchFrames: 8, FlushDeadline: time.Hour})

	from, err := wire.MakeAddr(1, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		bulk := make([]byte, 64)
		bulk[0] = byte(2 * i)
		for !a.TrySend(1, bulk) {
			if time.Now().After(deadline) {
				t.Fatalf("bulk TrySend %d never accepted", i)
			}
			time.Sleep(time.Millisecond)
		}
		ctl := make([]byte, 64)
		ctl[0] = byte(2*i + 1)
		ctl[6] = wire.FlagCtl
		flowctl.EncodeCredit(ctl[8:], from, uint16(i+1), uint64(100+i))
		if !a.TrySend(1, ctl) {
			t.Fatalf("credit TrySend %d refused", i)
		}
	}
	for i := 0; i < rounds; i++ {
		f := pollUntil(t, b, 2*time.Second)
		if f[0] != byte(2*i) {
			t.Fatalf("frame %d out of order: got marker %d, want %d", 2*i, f[0], 2*i)
		}
		f = pollUntil(t, b, 2*time.Second)
		if f[0] != byte(2*i+1) {
			t.Fatalf("credit frame %d out of order: got marker %d", i, f[0])
		}
		gotFrom, window, disposed, ok := flowctl.DecodeCredit(f[8:])
		if !ok || gotFrom != from || window != uint16(i+1) || disposed != uint64(100+i) {
			t.Fatalf("credit frame %d corrupted across flush boundary: from=%v window=%d disposed=%d ok=%v",
				i, gotFrom, window, disposed, ok)
		}
	}
	if st := a.Stats(); st.CtlBypass != rounds {
		t.Fatalf("CtlBypass = %d, want %d", st.CtlBypass, rounds)
	}
}
