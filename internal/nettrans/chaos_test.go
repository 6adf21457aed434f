package nettrans

// Chaos tests: kill and restore TCP connections mid-stream and assert
// the resilience contract — automatic reconnection within the backoff
// bound, traffic resuming afterwards, and every lost frame visible in
// a counter (Stats.PeerDowns, Stats.RxDrops, or the engine's PeerDown).
// No silent loss, no permanent peer blacklisting.

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/engine"
	"flipc/internal/mem"
	"flipc/internal/wire"
)

func fastReconnect() ReconnectConfig {
	return ReconnectConfig{
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	}
}

func chaosListen(t *testing.T, node wire.NodeID, rc ReconnectConfig) *Transport {
	t.Helper()
	tr, err := ListenConfig(Config{
		Node: node, Addr: "127.0.0.1:0", MessageSize: 64, Reconnect: rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func seqFrame(seq uint32) []byte {
	f := make([]byte, 64)
	binary.BigEndian.PutUint32(f[0:4], seq)
	return f
}

// sendSeqRetry retries until the transport accepts the frame.
func sendSeqRetry(t *testing.T, tr *Transport, dst wire.NodeID, seq uint32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !tr.TrySend(dst, seqFrame(seq)) {
		if time.Now().After(deadline) {
			t.Fatalf("seq %d never accepted", seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// drainSeqs polls tr until want frames arrived (appending their seqs)
// or the deadline passes.
func drainSeqs(t *testing.T, tr *Transport, got *[]uint32, want int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for len(*got) < want {
		f, ok := tr.Poll()
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("drained %d/%d frames (stats %+v)", len(*got), want, tr.Stats())
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		*got = append(*got, binary.BigEndian.Uint32(f[0:4]))
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// The acceptance scenario: two nodes exchanging traffic, the sender's
// connection killed mid-stream. The link must come back by itself
// within the backoff bound, traffic must resume, and the frames lost
// during the outage must equal exactly the refusals the transport
// counted — nothing vanishes without a counter moving.
func TestChaosKillMidStreamResumesWithAccounting(t *testing.T) {
	a := chaosListen(t, 0, fastReconnect())
	b := chaosListen(t, 1, fastReconnect())
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}

	var got []uint32
	// Phase 1: healthy traffic, fully drained so nothing is in flight
	// when the link is killed.
	for seq := uint32(0); seq < 100; seq++ {
		sendSeqRetry(t, a, 1, seq)
	}
	drainSeqs(t, b, &got, 100, 5*time.Second)

	// Kill the connection mid-stream.
	a.DropConn(1)

	// Phase 2: keep offering traffic during the outage, one attempt per
	// frame. Refused frames are the outage's losses; the transport must
	// count every one of them.
	refused := map[uint32]bool{}
	for seq := uint32(100); seq < 200; seq++ {
		if !a.TrySend(1, seqFrame(seq)) {
			refused[seq] = true
		}
		time.Sleep(100 * time.Microsecond)
	}
	if len(refused) == 0 {
		t.Fatal("no sends were refused during the outage")
	}

	// Reconnection within the backoff bound (generous multiple of
	// MaxBackoff to absorb scheduler noise).
	waitFor(t, 2*time.Second, "reconnect", func() bool { return a.PeerUp(1) })

	// Phase 3: traffic resumes.
	for seq := uint32(200); seq < 300; seq++ {
		sendSeqRetry(t, a, 1, seq)
	}
	accepted := 300 - len(refused)
	drainSeqs(t, b, &got, accepted, 5*time.Second)

	// Accounting: every frame is either received or counted as refused.
	seen := map[uint32]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("seq %d duplicated", s)
		}
		seen[s] = true
	}
	for seq := uint32(0); seq < 300; seq++ {
		switch {
		case seen[seq] && refused[seq]:
			t.Fatalf("seq %d both received and counted refused", seq)
		case !seen[seq] && !refused[seq]:
			t.Fatalf("seq %d lost silently (not received, not counted)", seq)
		}
	}
	ast, bst := a.Stats(), b.Stats()
	if ast.PeerDowns < uint64(len(refused)) {
		t.Fatalf("PeerDowns = %d, want >= %d refusals", ast.PeerDowns, len(refused))
	}
	if ast.Reconnects < 1 || bst.Reconnects < 1 {
		t.Fatalf("reconnects not counted on both sides: a=%d b=%d", ast.Reconnects, bst.Reconnects)
	}
	if int(ast.Sent) != accepted || int(bst.Delivered) != accepted || bst.RxDrops != 0 {
		t.Fatalf("sent=%d delivered=%d rxDrops=%d, want %d/%d/0",
			ast.Sent, bst.Delivered, bst.RxDrops, accepted, accepted)
	}
	// No blacklisting: the peer is healthy again.
	h, ok := a.PeerHealth(1)
	if !ok || h.State != PeerConnected || h.Reconnects < 1 || h.MeanOutageMs <= 0 {
		t.Fatalf("peer health after recovery: %+v", h)
	}
}

// A failure first observed by the read side (the remote kills the
// connection; we see EOF) must trigger the same recovery.
func TestChaosRemoteKillRecoversViaReadLoop(t *testing.T) {
	a := chaosListen(t, 0, fastReconnect())
	b := chaosListen(t, 1, fastReconnect())
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	sendSeqRetry(t, a, 1, 0)
	drainSeqs(t, b, &got, 1, 5*time.Second)

	b.DropConn(0) // remote end severs; a's readLoop sees EOF

	// a holds the dial address, so a redials; traffic resumes. Wait for
	// the full down→up cycle (Reconnects moving), not just PeerUp —
	// until a observes the EOF its state is still "connected" and a
	// frame written there would land in the dead socket.
	waitFor(t, 2*time.Second, "reconnect after remote kill", func() bool {
		return a.Stats().Reconnects >= 1 && a.PeerUp(1)
	})
	sendSeqRetry(t, a, 1, 1)
	drainSeqs(t, b, &got, 2, 5*time.Second)
	if a.Stats().Reconnects < 1 {
		t.Fatal("reconnect not counted")
	}
}

// Receive-side overload: frames that hit a full inbox are dropped but
// never silently — Delivered + RxDrops must account for every frame
// the sender put on the wire.
func TestChaosInboxOverflowCounted(t *testing.T) {
	a := chaosListen(t, 0, fastReconnect())
	b, err := ListenConfig(Config{
		Node: 1, Addr: "127.0.0.1:0", MessageSize: 64, InboxDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	const frames = 64
	for seq := uint32(0); seq < frames; seq++ {
		sendSeqRetry(t, a, 1, seq)
	}
	waitFor(t, 5*time.Second, "all frames accounted", func() bool {
		st := b.Stats()
		return st.Delivered+st.RxDrops == frames
	})
	st := b.Stats()
	if st.RxDrops == 0 {
		t.Fatalf("expected inbox-full drops with depth 8: %+v", st)
	}
	polled := 0
	for {
		if _, ok := b.Poll(); !ok {
			break
		}
		polled++
	}
	if uint64(polled) != st.Delivered {
		t.Fatalf("polled %d, delivered %d", polled, st.Delivered)
	}
}

// Regression for the duplicate-connection leak: when both sides dial
// simultaneously, the extra accepted connection used to be read from
// but never tracked, so Close never closed it. Every connection that
// existed before Close must be really closed afterwards.
func TestChaosSimultaneousDialRaceNoLeak(t *testing.T) {
	a := chaosListen(t, 0, fastReconnect())
	b := chaosListen(t, 1, fastReconnect())

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = a.Dial(1, b.Addr()) }() // errors tolerated:
	go func() { defer wg.Done(); _ = b.Dial(0, a.Addr()) }() // inbound may win the race
	wg.Wait()

	// Both directions must work whatever the race produced.
	var gotB, gotA []uint32
	sendSeqRetry(t, a, 1, 7)
	drainSeqs(t, b, &gotB, 1, 5*time.Second)
	sendSeqRetry(t, b, 0, 9)
	drainSeqs(t, a, &gotA, 1, 5*time.Second)
	if gotB[0] != 7 || gotA[0] != 9 {
		t.Fatalf("frames = %v / %v", gotB, gotA)
	}

	snapshot := func(tr *Transport) []net.Conn {
		tr.connMu.Lock()
		defer tr.connMu.Unlock()
		out := make([]net.Conn, 0, len(tr.conns))
		for c := range tr.conns {
			out = append(out, c)
		}
		return out
	}
	conns := append(snapshot(a), snapshot(b)...)
	if len(conns) < 2 {
		t.Fatalf("expected at least one connection per side, tracked %d", len(conns))
	}
	a.Close()
	b.Close()
	for _, c := range conns {
		if err := c.SetReadDeadline(time.Now()); err == nil {
			t.Fatal("connection leaked open after Close")
		}
	}
	if a.openConns() != 0 || b.openConns() != 0 {
		t.Fatalf("conns still tracked after Close: %d/%d", a.openConns(), b.openConns())
	}
}

// Register connects in the background through the redial machinery, so
// daemon start order doesn't matter and no startup dial can fail a node.
func TestChaosRegisterConnectsInBackground(t *testing.T) {
	a := chaosListen(t, 0, fastReconnect())
	b := chaosListen(t, 1, fastReconnect())
	a.Register(1, b.Addr())
	waitFor(t, 2*time.Second, "background connect", func() bool { return a.PeerUp(1) })
	var got []uint32
	sendSeqRetry(t, a, 1, 42)
	drainSeqs(t, b, &got, 1, 5*time.Second)
}

// End to end through the engine: messages queued on a send endpoint
// survive an outage (counted as Stats.PeerDown, not lost) and drain in
// order once the transport reconnects.
func TestChaosEngineTrafficSurvivesOutage(t *testing.T) {
	rc := fastReconnect()
	rc.InitialBackoff = 20 * time.Millisecond // a detectable outage window
	ta := chaosListen(t, 0, rc)
	tb := chaosListen(t, 1, fastReconnect())
	if err := ta.Dial(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	bufA, _ := commbuf.New(commbuf.Config{Node: 0, MessageSize: 64, NumBuffers: 32})
	bufB, _ := commbuf.New(commbuf.Config{Node: 1, MessageSize: 64, NumBuffers: 32})
	engA, err := engine.New(bufA, ta, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := engine.New(bufB, tb, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	appA, appB := bufA.View(mem.ActorApp), bufB.View(mem.ActorApp)
	sep, _ := bufA.AllocEndpoint(commbuf.EndpointSend, 32)
	rep, _ := bufB.AllocEndpoint(commbuf.EndpointRecv, 32)

	const msgs = 20
	for i := 0; i < msgs; i++ {
		m, err := bufB.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		m.StageRecv(appB)
		rep.Queue().Release(appB, uint64(m.ID()))
	}
	for i := 0; i < msgs; i++ {
		m, err := bufA.AllocMsg()
		if err != nil {
			t.Fatal(err)
		}
		m.Payload()[0] = byte(i)
		m.StageSend(appA, rep.Addr(), 1, 0)
		sep.Queue().Release(appA, uint64(m.ID()))
	}

	killed := false
	received := 0
	deadline := time.Now().Add(15 * time.Second)
	for received < msgs && time.Now().Before(deadline) {
		engA.Poll()
		engB.Poll()
		if !killed && engA.Stats().Sent >= msgs/2 {
			ta.DropConn(1)
			killed = true
		}
		if id, ok := rep.Queue().Acquire(appB); ok {
			m, _ := bufB.MsgByID(id)
			if got := int(m.Payload()[0]); got != received {
				t.Fatalf("message %d out of order (got %d)", received, got)
			}
			received++
		}
		time.Sleep(50 * time.Microsecond)
	}
	if received != msgs {
		t.Fatalf("received %d/%d after outage (engine %+v, transport %+v)",
			received, msgs, engA.Stats(), ta.Stats())
	}
	st := engA.Stats()
	if st.PeerDown == 0 {
		t.Fatalf("outage not visible as PeerDown: %+v", st)
	}
	if rep.Drops().Read(appB) != 0 {
		t.Fatal("receiver endpoint dropped messages")
	}
}
