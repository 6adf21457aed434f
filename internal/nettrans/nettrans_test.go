package nettrans

import (
	"encoding/json"
	"testing"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/engine"
	"flipc/internal/mem"
)

func pollUntil(t *testing.T, tr *Transport, d time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f, ok := tr.Poll(); ok {
			return f
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no frame arrived")
	return nil
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(0, "127.0.0.1:0", 63); err == nil {
		t.Fatal("bad message size accepted")
	}
	if _, err := Listen(0, "256.0.0.1:99999", 64); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, err := Listen(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}

	frame := make([]byte, 64)
	copy(frame, "over tcp")
	deadline := time.Now().Add(2 * time.Second)
	for !a.TrySend(1, frame) {
		if time.Now().After(deadline) {
			t.Fatal("TrySend never succeeded")
		}
		time.Sleep(time.Millisecond)
	}
	got := pollUntil(t, b, 2*time.Second)
	if string(got[:8]) != "over tcp" {
		t.Fatalf("frame = %q", got[:8])
	}
	// Reverse direction over the same full-duplex connection (b's
	// accepted side registers node 0 when the hello arrives).
	copy(frame, "backward")
	for !b.TrySend(0, frame) {
		if time.Now().After(deadline) {
			t.Fatal("reverse TrySend never succeeded")
		}
		time.Sleep(time.Millisecond)
	}
	got = pollUntil(t, a, 2*time.Second)
	if string(got[:8]) != "backward" {
		t.Fatalf("reverse frame = %q", got[:8])
	}
	if st := a.Stats(); st.Sent != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st := b.Stats(); st.Delivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if a.LocalNode() != 0 || b.LocalNode() != 1 {
		t.Fatal("LocalNode wrong")
	}
}

func TestTrySendNoPeer(t *testing.T) {
	a, err := Listen(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.TrySend(9, make([]byte, 64)) {
		t.Fatal("send to unconnected peer accepted")
	}
	if a.TrySend(9, make([]byte, 32)) {
		t.Fatal("wrong-size frame accepted")
	}
	if st := a.Stats(); st.PeerDowns != 1 {
		t.Fatalf("peer-down refusals = %d, want 1 (wrong-size frames don't count)", st.PeerDowns)
	}
	if a.PeerState(9) != PeerUnknown {
		t.Fatalf("state = %v, want unknown", a.PeerState(9))
	}
}

func TestDialErrors(t *testing.T) {
	a, err := Listen(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Dial(1, "127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	b, err := Listen(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(1, b.Addr()); err == nil {
		t.Fatal("duplicate dial accepted")
	}
	if len(a.Peers()) != 1 {
		t.Fatalf("peers = %v", a.Peers())
	}
}

func TestOrderPreservedOverTCP(t *testing.T) {
	a, _ := Listen(0, "127.0.0.1:0", 64)
	defer a.Close()
	b, _ := Listen(1, "127.0.0.1:0", 64)
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	const n = 200
	go func() {
		for i := 0; i < n; {
			f := make([]byte, 64)
			f[0] = byte(i)
			if a.TrySend(1, f) {
				i++
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < n; i++ {
		f := pollUntil(t, b, 5*time.Second)
		if f[0] != byte(i) {
			t.Fatalf("frame %d out of order (got %d)", i, f[0])
		}
	}
}

// The portability claim: the unmodified engine + library runs over TCP.
func TestFullFLIPCOverTCP(t *testing.T) {
	ta, _ := Listen(0, "127.0.0.1:0", 64)
	defer ta.Close()
	tb, _ := Listen(1, "127.0.0.1:0", 64)
	defer tb.Close()
	if err := ta.Dial(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	bufA, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64})
	bufB, _ := commbuf.New(commbuf.Config{Node: 1, MessageSize: 64})
	engA, err := engine.New(bufA, ta, engine.Config{ValidityChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := engine.New(bufB, tb, engine.Config{ValidityChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	appA := bufA.View(mem.ActorApp)
	appB := bufB.View(mem.ActorApp)
	sep, _ := bufA.AllocEndpoint(commbuf.EndpointSend, 4)
	rep, _ := bufB.AllocEndpoint(commbuf.EndpointRecv, 4)

	rm, _ := bufB.AllocMsg()
	rm.StageRecv(appB)
	rep.Queue().Release(appB, uint64(rm.ID()))

	sm, _ := bufA.AllocMsg()
	copy(sm.Payload(), "engine over sockets")
	sm.StageSend(appA, rep.Addr(), 19, 0)
	sep.Queue().Release(appA, uint64(sm.ID()))

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		engA.Poll()
		engB.Poll()
		if id, ok := rep.Queue().Acquire(appB); ok {
			m, _ := bufB.MsgByID(id)
			if got := string(m.Payload()[:19]); got != "engine over sockets" {
				t.Fatalf("payload = %q", got)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("message never delivered over TCP")
}

func TestBatchWritesFlushDelivers(t *testing.T) {
	a, err := ListenConfig(Config{Node: 0, Addr: "127.0.0.1:0", MessageSize: 64, BatchWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		f := make([]byte, 64)
		f[0] = byte(i)
		if !a.TrySend(1, f) {
			t.Fatalf("batched TrySend %d refused", i)
		}
	}
	// Nothing hits the wire until the flush.
	time.Sleep(20 * time.Millisecond)
	if _, ok := b.Poll(); ok {
		t.Fatal("frame arrived before FlushSends")
	}
	a.FlushSends()
	for i := 0; i < n; i++ {
		f := pollUntil(t, b, 2*time.Second)
		if f[0] != byte(i) {
			t.Fatalf("frame %d out of order (got %d)", i, f[0])
		}
	}
	if st := a.Stats(); st.Sent != n || st.FlushLost != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBatchWritesInlineFlushWhenFull(t *testing.T) {
	a, err := ListenConfig(Config{Node: 0, Addr: "127.0.0.1:0", MessageSize: 64,
		BatchWrites: true, MaxBatchFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	// The 4th frame fills the batch and triggers an inline flush — no
	// explicit FlushSends needed.
	for i := 0; i < 4; i++ {
		if !a.TrySend(1, make([]byte, 64)) {
			t.Fatalf("TrySend %d refused", i)
		}
	}
	for i := 0; i < 4; i++ {
		pollUntil(t, b, 2*time.Second)
	}
}

func TestBatchWritesCloseCountsPendingAsLost(t *testing.T) {
	a, err := ListenConfig(Config{Node: 0, Addr: "127.0.0.1:0", MessageSize: 64, BatchWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !a.TrySend(1, make([]byte, 64)) {
			t.Fatalf("TrySend %d refused", i)
		}
	}
	a.Close()
	if st := a.Stats(); st.FlushLost != 3 {
		t.Fatalf("FlushLost = %d, want 3 (accepted-then-unflushed frames must be counted)", st.FlushLost)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, _ := Listen(0, "127.0.0.1:0", 64)
	a.Close()
	a.Close()
	if a.TrySend(1, make([]byte, 64)) {
		t.Fatal("send after close succeeded")
	}
}

// PeerHealth travels as JSON (the "peers" health source, decoded again
// by flipcstat -watch): a state is its name both ways.
func TestPeerHealthJSONRoundTrip(t *testing.T) {
	for st := PeerUnknown; st <= PeerDead; st++ {
		in := PeerHealth{Node: 3, State: st, Sent: 9}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out PeerHealth
		if err := json.Unmarshal(b, &out); err != nil || out != in {
			t.Fatalf("%s: %s decoded to %+v (%v)", st, b, out, err)
		}
		if in.Degraded() != (st != PeerConnected) {
			t.Fatalf("%s: Degraded = %v", st, in.Degraded())
		}
	}
}
