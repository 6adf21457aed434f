package topic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
)

func TestDurableClassAttribute(t *testing.T) {
	c := Normal | Durable
	if !c.Valid() || !c.IsDurable() {
		t.Fatalf("Normal|Durable: valid=%v durable=%v", c.Valid(), c.IsDurable())
	}
	if c.Base() != Normal {
		t.Fatalf("Base() = %v, want Normal", c.Base())
	}
	if c.EndpointPriority() != Normal.EndpointPriority() ||
		c.SchedPriority() != Normal.SchedPriority() ||
		c.Flags() != Normal.Flags() {
		t.Fatal("Durable attribute leaked into priority mappings")
	}
	if got := c.String(); got != "normal+durable" {
		t.Fatalf("String() = %q", got)
	}
	if ClassFromFlags(c.Flags()) != Normal {
		t.Fatal("durable attribute must not ride the wire flags")
	}
	if (Class(3) | Durable).Valid() {
		t.Fatal("undefined base class accepted under the attribute")
	}
}

func newDurableLog(t *testing.T, opt duralog.Options) *duralog.Log {
	t.Helper()
	log, err := duralog.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	return log
}

// lockSeam drives the durable handshake (hello → resume → done) until
// the subscriber's seam is locked.
func lockSeam(t *testing.T, pub *Publisher, sub *Subscriber) {
	t.Helper()
	settle(t, "durable seam lock", func() bool {
		drain(sub)
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		return sub.DurableLocked()
	})
}

// The live half of the durable contract: a subscriber that never
// disconnects sees every published payload exactly once, in order,
// with the sequence prefix stripped, and its Renew-cadence acks move
// the log cursor.
func TestDurableLiveStream(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	log := newDurableLog(t, duralog.Options{NoSync: true})

	sub, err := NewSubscriberDurable(subD, dir, "orders", Normal, 64, 32, "node1/consumer")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Class() != Normal|Durable {
		t.Fatalf("subscriber class = %v", sub.Class())
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "orders", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if pub.DurableLog() != log {
		t.Fatal("DurableLog not exposed")
	}
	lockSeam(t, pub, sub)

	const n = 20
	for i := 0; i < n; i++ {
		res, err := pub.Publish([]byte(fmt.Sprintf("m-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		// On a durable topic every fanout outcome is delivery-bound:
		// sent live or deferred into the replay stream, never dropped.
		if res.Sent+res.Deferred != 1 || res.Dropped != 0 {
			t.Fatalf("publish %d: %+v", i, res)
		}
	}
	var got []string
	settle(t, "all deliveries", func() bool {
		for {
			payload, _, ok := sub.Receive()
			if !ok {
				break
			}
			got = append(got, string(payload))
		}
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		return len(got) == n
	})
	for i, g := range got {
		if want := fmt.Sprintf("m-%02d", i); g != want {
			t.Fatalf("delivery %d = %q, want %q", i, g, want)
		}
	}
	if log.Head() != n {
		t.Fatalf("log head = %d, want %d", log.Head(), n)
	}
	// The Renew-cadence ack lands in the publisher's log and in the
	// directory.
	settle(t, "cursor advance", func() bool {
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0) // harvest the ack
		cur, ok := log.Cursor("node1/consumer")
		return ok && cur == n
	})
	if cur, ok := dir.R.CursorOf("orders", "node1/consumer"); !ok || cur != n {
		t.Fatalf("directory cursor = %d (ok=%v), want %d", cur, ok, n)
	}
}

// The tentpole scenario: a durable subscriber dies mid-stream, traffic
// keeps flowing, and a replacement with the same cursor name resumes
// from the stored cursor — every sequence is delivered exactly once
// across the two incarnations, catch-up rides the replay path, and
// live fanout to the catching-up subscriber is deferred, not doubled.
func TestDurableResumeFromStoredCursor(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	log := newDurableLog(t, duralog.Options{NoSync: true})

	const name = "node1/billing"
	sub1, err := NewSubscriberDurable(subD, dir, "orders", Normal, 64, 32, name)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "orders", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	lockSeam(t, pub, sub1)

	seen := make(map[uint64]int) // seq → deliveries, across both incarnations
	note := func(s *Subscriber, countReplay *int) {
		for {
			payload, flags, ok := s.Receive()
			if !ok {
				return
			}
			var seq uint64
			if _, err := fmt.Sscanf(string(payload), "m-%d", &seq); err != nil {
				t.Fatalf("bad payload %q", payload)
			}
			seen[seq]++
			if flags&replayFlag != 0 {
				*countReplay++
			}
		}
	}

	// Phase 1: live traffic, partially consumed and acked.
	const phase1 = 10
	for i := 1; i <= phase1; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	replays := 0
	settle(t, "phase 1 deliveries", func() bool {
		note(sub1, &replays)
		if err := sub1.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		return len(seen) == phase1
	})
	settle(t, "phase 1 ack", func() bool {
		if err := sub1.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		cur, ok := log.Cursor(name)
		return ok && cur == phase1
	})

	// The subscriber dies: no unsubscribe (a crash), the lease is
	// evicted the hard way.
	if !pub.Evict(sub1.Addr()) {
		t.Fatal("evict missed the planned subscriber")
	}
	_ = dir.R // lease would age out; eviction above is the fast path

	// Phase 2: the world keeps publishing into the log with nobody
	// listening. More than one replay burst so the replacement's
	// catch-up spans several pumps.
	const phase2 = 100
	for i := phase1 + 1; i <= phase1+phase2; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 3: the replacement resumes under the same name and a fresh
	// address, while live traffic continues. UseStoredCursor: its
	// predecessor's acked position is the seam.
	sub2, err := NewSubscriberDurable(subD, dir, "orders", Normal, 64, 32, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	const phase3 = 8
	published := phase1 + phase2
	settle(t, "catch-up and relock", func() bool {
		note(sub2, &replays)
		if err := sub2.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		// Live traffic continues until it has met the catch-up: a slow
		// handshake must not let every live publish slip in ahead of it.
		if published < phase1+phase2+phase3 || pub.Deferred() == 0 {
			published++
			if _, err := pub.Publish([]byte(fmt.Sprintf("m-%d", published))); err != nil {
				t.Fatal(err)
			}
		}
		return sub2.DurableLocked() && len(seen) == published
	})
	settle(t, "tail drain", func() bool {
		note(sub2, &replays)
		return len(seen) == published
	})

	// Exactly once, across incarnations: every sequence delivered,
	// none twice.
	for seq := 1; seq <= published; seq++ {
		if c := seen[uint64(seq)]; c != 1 {
			t.Fatalf("seq %d delivered %d times", seq, c)
		}
	}
	if replays == 0 || sub2.Replayed() == 0 {
		t.Fatal("catch-up did not ride the replay path")
	}
	if pub.Replayed() == 0 {
		t.Fatal("publisher replay ledger empty")
	}
	if pub.Deferred() == 0 {
		t.Fatal("live fanout during catch-up was not deferred")
	}
	// Conservation: every journaled frame was delivered live or as
	// replay; nothing was stranded.
	if pub.ReplayStranded() != 0 {
		t.Fatalf("stranded = %d on an unbreached log", pub.ReplayStranded())
	}
	if uint64(published) != log.Head() {
		t.Fatalf("published %d != log head %d", published, log.Head())
	}
}

// Rebind mid-stream: the inbox (and address) change under the seam,
// the resume carries the explicit cursor, and the gap the move opened
// is healed by replay — in order, exactly once.
func TestDurableRebindHealsGap(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	log := newDurableLog(t, duralog.Options{NoSync: true})

	sub, err := NewSubscriberDurable(subD, dir, "tele", Normal, 64, 32, "node1/tele")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "tele", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	lockSeam(t, pub, sub)

	var got []uint64
	recv := func() {
		for {
			payload, _, ok := sub.Receive()
			if !ok {
				return
			}
			got = append(got, binary.BigEndian.Uint64(payload))
		}
	}
	pubN := func(from, to int) {
		for i := from; i <= to; i++ {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(i))
			if _, err := pub.Publish(b[:]); err != nil {
				t.Fatal(err)
			}
		}
	}

	pubN(1, 5)
	settle(t, "pre-rebind deliveries", func() bool {
		recv()
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		return len(got) == 5
	})

	// The move: old endpoint freed, frames published before the
	// publisher learns the new address go nowhere live — only the log
	// has them.
	oldAddr := sub.Addr()
	if err := sub.Rebind(); err != nil {
		t.Fatal(err)
	}
	if sub.Addr() == oldAddr {
		t.Fatal("rebind kept the address")
	}
	pub.Evict(oldAddr)
	pubN(6, 10)
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	settle(t, "post-rebind heal", func() bool {
		recv()
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		pub.PumpReplay(0)
		return len(got) == 10
	})
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d = seq %d, want %d (stream: %v)", i, seq, i+1, got)
		}
	}
}

// The reorder stash keeps its own copy of a frame, because a receive
// lends its payload only until the next one. Frame 5 arrives ahead of
// the seam and is stashed; frames 1-3 are then received and delivered
// in order, each overwriting the inbox's lent buffer; frame 4 fills the
// hole, and the stash gives frame 5 back with its own body.
func TestDurableStashOutlivesLentPayload(t *testing.T) {
	fabric := interconnect.NewFabric(64)
	srcD := newIdleDomain(t, fabric, 0)
	subD := newIdleDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	sub, err := NewSubscriberDurable(subD, dir, "orders", Normal, 16, 16, "node1/stash")
	if err != nil {
		t.Fatal(err)
	}
	sub.handleGrant(0) // the seam locks with sequence 1 next
	src, err := msglib.NewOutbox(srcD, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	body := func(seq uint64) string {
		if seq == 5 {
			return "the stashed frame's own body"
		}
		return fmt.Sprintf("live-%d", seq)
	}
	send := func(seqs ...uint64) { // durable data frames, laid out as stageSeq lays them
		for _, seq := range seqs {
			if err := src.Send(sub.Addr(), append(binary.BigEndian.AppendUint64(nil, seq), body(seq)...)); err != nil {
				t.Fatal(err)
			}
		}
		pollAll(srcD, subD)
	}
	recv := func(want uint64) {
		t.Helper()
		if p, _, ok := sub.Receive(); !ok || string(p) != body(want) {
			t.Fatalf("receive = %q (ok %v), want %q", p, ok, body(want))
		}
	}

	send(5, 1, 2, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		recv(seq)
	}
	if len(sub.dur.stash) != 1 {
		t.Fatalf("stash holds %d frames, want frame 5 alone", len(sub.dur.stash))
	}
	send(4)
	recv(4)
	recv(5)
	if _, _, ok := sub.Receive(); ok || len(sub.dur.stash) != 0 || sub.dur.next.Load() != 6 {
		t.Fatalf("after the hole filled: stash %d, next %d", len(sub.dur.stash), sub.dur.next.Load())
	}
}

// A durable publish with no subscribers still journals: the topic's
// history exists before (and after) anyone listens.
func TestDurablePublishWithoutSubscribers(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	log := newDurableLog(t, duralog.Options{NoSync: true})

	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "void", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := pub.Publish([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != 0 {
			t.Fatalf("sent %d with no subscribers", res.Sent)
		}
	}
	if log.Head() != 3 || pub.Published() != 3 {
		t.Fatalf("head=%d published=%d, want 3/3", log.Head(), pub.Published())
	}
}

// FuzzDurableCtlCodec drives the resume/ack/done control codec with
// arbitrary bytes: decoders never panic, and whatever decodes
// re-encodes to the identical frame (the codec is canonical).
func FuzzDurableCtlCodec(f *testing.F) {
	addr := core.Addr(0x00030701)
	var buf [durCtlFrameMax]byte
	n := encodeResume(buf[:], addr, UseStoredCursor, "node1/consumer")
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeResume(buf[:], addr, 12345, "a")
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeAck(buf[:], addr, 999, "node3/analytics")
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeDone(buf[:], 43, 42) // empty replay range
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeDone(buf[:], 1, 100)
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeGrant(buf[:], 300)
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeGrant(buf[:], UseStoredCursor-1)
	f.Add(append([]byte(nil), buf[:n]...))
	// Truncated and magic-corrupted variants.
	n = encodeAck(buf[:], addr, 7, "torn")
	f.Add(append([]byte(nil), buf[:n-2]...))
	f.Add([]byte{resumeMagic})
	f.Add([]byte{ackMagic, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if from, cursor, name, ok := decodeResume(data); ok {
			var re [durCtlFrameMax]byte
			n := encodeResume(re[:], from, cursor, name)
			if !bytes.Equal(re[:n], data) {
				t.Fatalf("resume not canonical:\n in  %x\n out %x", data, re[:n])
			}
		}
		if from, seq, name, ok := decodeAck(data); ok {
			var re [durCtlFrameMax]byte
			n := encodeAck(re[:], from, seq, name)
			if !bytes.Equal(re[:n], data) {
				t.Fatalf("ack not canonical:\n in  %x\n out %x", data, re[:n])
			}
		}
		if start, head, ok := decodeDone(data); ok {
			var re [doneFrameBytes]byte
			n := encodeDone(re[:], start, head)
			if !bytes.Equal(re[:n], data) {
				t.Fatalf("done not canonical:\n in  %x\n out %x", data, re[:n])
			}
		}
		if cursor, ok := decodeGrant(data); ok {
			var re [grantFrameBytes]byte
			n := encodeGrant(re[:], cursor)
			if !bytes.Equal(re[:n], data) {
				t.Fatalf("grant not canonical:\n in  %x\n out %x", data, re[:n])
			}
		}
	})
}

// openFDs counts this process's open descriptors on files under dir
// (so that descriptors other tests abandoned to the finalizer, closing
// whenever the collector runs, do not count).
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// A catching-up subscriber holds one log cursor — one descriptor — from
// pump to pump, and gives it back however the catch-up ends: drained to
// the head, evicted mid-flight, re-addressed, or at Publisher.Close.
func TestReplayCursorDescriptorLifetime(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	logDir := t.TempDir()
	log, err := duralog.Open(logDir, duralog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	sub, err := NewSubscriberDurable(subD, dir, "fds", Normal, 64, 32, "node1/fds")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "fds", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	lockSeam(t, pub, sub)

	var got []uint64
	recv := func() {
		for {
			payload, _, ok := sub.Receive()
			if !ok {
				return
			}
			got = append(got, binary.BigEndian.Uint64(payload))
		}
	}
	published := 0
	publish := func(n int) {
		for ; n > 0; n-- {
			published++
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(published))
			if _, err := pub.Publish(b[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Like settle, yielding instead of sleeping: 200 catch-ups a
	// millisecond at a time would be most of the package's test time.
	settle := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
		}
	}
	catchUp := func(what string) {
		settle(t, what, func() bool {
			recv()
			if err := sub.Renew(); err != nil {
				t.Fatal(err)
			}
			pub.PumpReplay(8 * replayBurst)
			return len(got) == published && pub.CatchingUp() == 0
		})
	}
	// lose makes the subscriber miss many bursts of publishes — more than
	// the control frames of one harvest can have replayed — then pumps
	// until the publisher is part-way through replaying them to it, its
	// cursor open between pumps.
	base := 0
	lose := func() {
		pub.Evict(sub.Addr())
		publish(8 * replayBurst) // journaled, fanned out to nobody
		// Re-admit the address (the membership generation must move for
		// Refresh to re-plan it); one live frame ahead of the seam shows
		// the subscriber its gap, and its next Renew resumes from the seam.
		if err := sub.Leave(); err != nil {
			t.Fatal(err)
		}
		if err := sub.Renew(); err != nil {
			t.Fatal(err)
		}
		if err := pub.Refresh(); err != nil {
			t.Fatal(err)
		}
		publish(1)
		settle(t, "catch-up under way", func() bool {
			recv()
			if err := sub.Renew(); err != nil {
				t.Fatal(err)
			}
			pub.PumpReplay(1)
			n := openFDs(t, logDir)
			if n > base+1 {
				t.Fatalf("%d descriptors on the log, want at most the baseline %d plus one cursor", n, base)
			}
			return pub.CatchingUp() > 0 && n == base+1
		})
	}

	publish(1) // opens the log's segment: part of the baseline
	catchUp("first delivery")
	base = openFDs(t, logDir)
	for round := 0; round < 100; round++ {
		lose()
		switch {
		case round < 5: // re-addressed mid-flight, then drained (each Rebind costs arena, so only a few)
			old := sub.Addr()
			if err := sub.Rebind(); err != nil {
				t.Fatal(err)
			}
			pub.Evict(old)
			catchUp("drain after re-address")
		case round%2 == 0: // evicted mid-flight; the next round re-admits it
			if !pub.Evict(sub.Addr()) {
				t.Fatalf("round %d: the catching-up address was not planned", round)
			}
		default:
			catchUp("drain to the head")
		}
		if n := openFDs(t, logDir); n != base {
			t.Fatalf("round %d: %d descriptors after the catch-up ended, want the baseline %d", round, n, base)
		}
	}

	lose()
	pub.Close()
	if n := openFDs(t, logDir); n != base {
		t.Fatalf("%d descriptors after Publisher.Close, want the baseline %d", n, base)
	}
	catchUp("drain after Close") // the publisher stays usable
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d = seq %d, want %d: the moves lost or repeated a record", i, seq, i+1)
		}
	}
}
