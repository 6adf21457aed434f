package topic

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// sealedBacklog journals n payloads (each its 8-byte sequence) and
// reopens the log, so that every segment is sealed and a catch-up reads
// through the log's shared read descriptor. Each name gets a cursor at
// zero: its resume replays the whole backlog.
func sealedBacklog(tb testing.TB, n int, names ...string) (*duralog.Log, string) {
	tb.Helper()
	dir := tb.TempDir()
	log, err := duralog.Open(dir, duralog.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	var b [8]byte
	for seq := 1; seq <= n; seq++ {
		binary.BigEndian.PutUint64(b[:], uint64(seq))
		if _, err := log.Append(Normal.Flags(), b[:]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	if log, err = duralog.Open(dir, duralog.Options{NoSync: true}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { log.Close() })
	for _, name := range names {
		if err := log.Ack(name, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return log, dir
}

// Catch-ups from a sealed segment read through one descriptor, opened by
// the first of them and shared by the rest, and it stays open for the
// next resume.
func TestReplaySealedSegmentSharesOneDescriptor(t *testing.T) {
	const backlog = 500
	names := []string{"node1/a", "node1/b", "node1/c"}
	log, logDir := sealedBacklog(t, backlog, names...)
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	var subs []*Subscriber
	for _, name := range names {
		sub, err := NewSubscriberDurable(subD, dir, "sealed", Normal, 64, 32, name)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "sealed", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(subs))
	most, together := 0, 0
	settle(t, "every backlog replayed", func() bool {
		done := true
		for i, s := range subs {
			got[i] += drain(s)
			if err := s.Renew(); err != nil {
				t.Fatal(err)
			}
			done = done && got[i] == backlog
		}
		pub.PumpReplay(0)
		most = max(most, openFDs(t, logDir))
		together = max(together, pub.CatchingUp())
		return done && pub.CatchingUp() == 0
	})
	if most != 1 || together < 2 {
		t.Fatalf("at most %d descriptors while up to %d subscribers caught up, want 1 shared by several", most, together)
	}
	if n := openFDs(t, logDir); n != 1 {
		t.Fatalf("%d descriptors after the catch-ups, want the 1 kept for the next resume", n)
	}
}

// PumpReplay(k) is the only pump of its call: a resume its harvest
// handles only grants, so the call sends at most k replay frames, and
// it returns exactly what it sent.
func TestPumpReplayBound(t *testing.T) {
	const backlog = 300
	names := []string{"node1/a", "node1/b"}
	log, _ := sealedBacklog(t, backlog, names...)
	fabric := interconnect.NewFabric(1024)
	pubD := newIdleDomain(t, fabric, 0)
	subD := newIdleDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
	var subs []*Subscriber
	for _, name := range names {
		sub, err := NewSubscriberDurable(subD, dir, "bound", Normal, 64, 64, name)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "bound", Class: Normal, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	replayed := func() (n uint64) {
		for _, s := range subs {
			n += s.Replayed()
		}
		return n
	}
	got := 0
	for round := 0; got < len(subs)*backlog; round++ {
		if round > 10000 {
			t.Fatalf("stuck at %d of %d deliveries", got, len(subs)*backlog)
		}
		k := []int{1, 5, 2, replayBurst, 3}[round%5]
		before, seen := pub.Replayed(), replayed()
		n := pub.PumpReplay(k)
		if n > k || pub.Replayed()-before != uint64(n) {
			t.Fatalf("PumpReplay(%d) returned %d, Replayed moved %d", k, n, pub.Replayed()-before)
		}
		pollAll(pubD, subD)
		for _, s := range subs {
			got += drain(s)
		}
		if d := replayed() - seen; d != uint64(n) {
			t.Fatalf("PumpReplay(%d) returned %d, %d replay frames arrived", k, n, d)
		}
		pollAll(pubD, subD)
	}
	if pub.CatchingUp() != 0 {
		t.Fatalf("%d subscribers still catching up", pub.CatchingUp())
	}
}

// benchDomain is the bench harness's topic domain: no engine goroutine,
// so nothing moves unless the caller polls.
func benchDomain(b *testing.B, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	tr, err := fabric.Attach(node)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: 128,
		NumBuffers: 1024, MaxEndpoints: 32, DefaultQueueDepth: 64}, tr)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDurableResume times a durable resume against a sealed
// backlog, from the subscriber's join to its first replayed delivery
// (the bench's topic.resume_to_first_ns), and then each part of the
// join on its own: the subscriber's control outbox, its inbox (an
// endpoint and 64 posted buffers), and the directory registration.
//
//	go test -run '^$' -bench DurableResume -benchtime 2000x ./internal/topic
func BenchmarkDurableResume(b *testing.B) {
	log, _ := sealedBacklog(b, 5000)
	b.Run("join_to_first", func(b *testing.B) {
		b.ReportAllocs()
		var joinNs time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			name := fmt.Sprintf("r%d", i)
			if err := log.Ack(name, 0); err != nil {
				b.Fatal(err)
			}
			fabric := interconnect.NewFabric(256)
			pubD, subD := benchDomain(b, fabric, 0), benchDomain(b, fabric, 1)
			dir := LocalDirectory{R: nameservice.NewTopicRegistry()}
			pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "resume", Class: Normal, Depth: 64, Window: 64, Log: log})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			t0 := time.Now()
			sub, err := NewSubscriberDurable(subD, dir, "resume", Normal, 64, 64, name)
			if err != nil {
				b.Fatal(err)
			}
			joinNs += time.Since(t0)
			if err := pub.Refresh(); err != nil {
				b.Fatal(err)
			}
			for first := false; !first; {
				pub.PumpReplay(0)
				pubD.Poll()
				subD.Poll()
				_, _, first = sub.Receive()
			}
			b.StopTimer()
			pub.Close()
			pubD.Close()
			subD.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(joinNs.Nanoseconds())/float64(b.N), "join-ns/op")
	})
	stage := func(name string, op func(d *core.Domain, dir Directory, i int) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var d *core.Domain
			var dir Directory
			for i := 0; i < b.N; i++ {
				if i%8 == 0 { // a fresh domain and topic: every op is a first join
					b.StopTimer()
					if d != nil {
						d.Close()
					}
					d = benchDomain(b, interconnect.NewFabric(256), 1)
					dir = LocalDirectory{R: nameservice.NewTopicRegistry()}
					b.StartTimer()
				}
				if err := op(d, dir, i); err != nil {
					b.Fatal(err)
				}
			}
			d.Close()
		})
	}
	stage("outbox", func(d *core.Domain, _ Directory, _ int) error {
		_, err := msglib.NewOutboxPrio(d, 0, creditOutboxBufs, Control.EndpointPriority())
		return err
	})
	stage("inbox", func(d *core.Domain, _ Directory, _ int) error {
		_, err := msglib.NewInbox(d, 64, 64)
		return err
	})
	stage("subscribe", func(_ *core.Domain, dir Directory, i int) error {
		addr, err := wire.MakeAddr(1, uint16(i%8), 1)
		if err != nil {
			return err
		}
		return Subscribe(dir, "resume", addr, Normal|Durable)
	})
}
