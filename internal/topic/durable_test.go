package topic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/interconnect"
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
	// The hello Refresh sends is not retried before the next refresh, 64
	// publishes away, so it must not meet an outbox still backlogged from
	// phase 2 (straggling phase-1 acks re-open a replay to the dead
	// address there) — the liveness gap CHANGES.md records under PR 21.
	settle(t, "phase 2 outbox drain", pub.Outbox().Flush)
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
