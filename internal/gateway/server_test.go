package gateway

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"flipc/internal/topic"
)

// startServer brings up a TCP gateway on loopback and returns its
// address.
func startServer(t *testing.T, h *muxHarness) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h.mux)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// End-to-end over TCP: dial, subscribe to a wildcard, publish from the
// fabric, receive the enveloped delivery; then publish from the client
// and observe it on a fabric subscriber.
func TestServerEndToEnd(t *testing.T) {
	h := newMuxHarness(t, Config{Name: "gw-tcp"})
	addr := startServer(t, h)

	c, err := Dial(addr, "term-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("metrics.*", topic.Normal); err != nil {
		t.Fatal(err)
	}
	// Subscription effects are asynchronous from the client's view;
	// wait for the registry to hold the pattern.
	deadline := time.Now().Add(5 * time.Second)
	for h.reg.PatternCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pattern never registered")
		}
		time.Sleep(time.Millisecond)
	}

	pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: "metrics.mem", Class: topic.Normal, Depth: 64, Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Keep publishing until the reader got one; sends may be
		// refused while the engine warms up.
		for i := 0; i < 1000; i++ {
			_, _ = pub.Publish([]byte("93"))
			time.Sleep(time.Millisecond)
		}
	}()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.RecvDeliver()
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "metrics.mem" || string(f.Payload) != "93" || topic.Class(f.Class) != topic.Normal {
		t.Fatalf("delivery %+v", f)
	}

	// Client → fabric.
	sub, err := topic.NewSubscriber(h.pbD, h.dir, "acks.term", topic.Control, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("acks.term", topic.Control, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if payload, _, ok := sub.Receive(); ok {
			if string(payload) != "ok" {
				t.Fatalf("payload %q", payload)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client publish never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerPingAndDisconnectCleanup(t *testing.T) {
	h := newMuxHarness(t, Config{Name: "gw-tcp2"})
	addr := startServer(t, h)

	c, err := Dial(addr, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping([]byte("rtt")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.Recv()
	if err != nil || f.Op != OpPong || string(f.Payload) != "rtt" {
		t.Fatalf("pong: %+v %v", f, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.reg.PresenceCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("presence never appeared")
		}
		time.Sleep(time.Millisecond)
	}

	// Clean close drops presence and the connection count.
	_ = c.Close()
	deadline = time.Now().Add(5 * time.Second)
	for h.reg.PresenceCount() != 0 || h.mux.Health().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cleanup: presence %d conns %d", h.reg.PresenceCount(), h.mux.Health().Conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// Clients on distinct topics share the frame slab, and each writer
// goroutine reads its slots while the pump recycles others: no client
// may receive a byte of another client's topic.
func TestServerClientsNeverSeeOtherTopics(t *testing.T) {
	h := newMuxHarness(t, Config{Name: "gw-iso"})
	addr := startServer(t, h)
	const clients, want = 4, 300
	stop := make(chan struct{})
	defer close(stop)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("iso.%d", i)
		c, err := Dial(addr, fmt.Sprintf("iso-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(name, topic.Normal); err != nil {
			t.Fatal(err)
		}
		pub, err := topic.NewPublisher(h.pbD, h.dir, topic.PublisherConfig{Topic: name, Class: topic.Normal, RefreshEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{byte(i)}, 40+i)
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = pub.Publish(payload)
				time.Sleep(20 * time.Microsecond)
			}
		}()
		go func() {
			_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
			for n := 0; n < want; n++ {
				f, err := c.RecvDeliver()
				if err == nil && (f.Name != name || !bytes.Equal(f.Payload, payload)) {
					err = fmt.Errorf("client on %s got %s: % x", name, f.Name, f.Payload)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// A peer announcing an oversized frame is disconnected, not humoured.
func TestServerCutsFramingDesync(t *testing.T) {
	h := newMuxHarness(t, Config{Name: "gw-tcp3"})
	addr := startServer(t, h)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := nc.Read(buf); err == nil {
		// A response would mean the server kept parsing garbage.
		t.Fatal("server answered a desynced stream")
	}
}
