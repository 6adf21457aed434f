package core

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"flipc/internal/israce"
)

// allocAll takes every buffer of d, indexed by buffer id.
func allocAll(t *testing.T, d *Domain) []*Message {
	t.Helper()
	all := make([]*Message, d.Buffer().NumBuffers())
	for range all {
		m, err := d.AllocBuffer()
		if err != nil {
			t.Fatal(err)
		}
		all[m.ID()] = m
	}
	return all
}

// TestHandlesAreCanonical: a buffer has one handle. Acquire and Receive
// return the pointer AllocBuffer returned for that id, and because a
// handle holds no mutable state the engine goroutines may resolve the
// same ids while the application cycles every buffer (run with -race).
func TestHandlesAreCanonical(t *testing.T) {
	const window, total = 32, 4000
	doms := newCluster(t, 2, Config{NumBuffers: window})
	a, b := doms[0], doms[1]
	sep, err := a.NewSendEndpoint(window)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.NewRecvEndpoint(window)
	if err != nil {
		t.Fatal(err)
	}
	sendBufs, recvBufs := allocAll(t, a), allocAll(t, b)
	for _, m := range recvBufs {
		if err := rep.Post(m); err != nil {
			t.Fatal(err)
		}
	}
	a.Start()
	b.Start()

	free := append([]*Message(nil), sendBufs...)
	sent, received := 0, 0
	deadline := time.Now().Add(20 * time.Second)
	for received < total {
		for {
			m, ok := sep.Acquire()
			if !ok {
				break
			}
			if m != sendBufs[m.ID()] {
				t.Fatalf("Acquire returned %p for buffer %d, AllocBuffer returned %p", m, m.ID(), sendBufs[m.ID()])
			}
			free = append(free, m)
		}
		// sent-received < window: every send finds a posted buffer.
		for sent < total && sent-received < window && len(free) > 0 {
			m := free[len(free)-1]
			free = free[:len(free)-1]
			binary.BigEndian.PutUint64(m.Payload(), uint64(sent))
			if err := sep.Send(m, rep.Addr(), 8); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for {
			m, ok := rep.Receive()
			if !ok {
				break
			}
			if m != recvBufs[m.ID()] {
				t.Fatalf("Receive returned %p for buffer %d, AllocBuffer returned %p", m, m.ID(), recvBufs[m.ID()])
			}
			if got := binary.BigEndian.Uint64(m.Payload()); m.Len() != 8 || got != uint64(received) {
				t.Fatalf("delivery %d carries %d (%d bytes)", received, got, m.Len())
			}
			received++
			if err := rep.Post(m); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d (sent %d, drops %d)", received, total, sent, rep.Drops())
		}
		runtime.Gosched()
	}
	if d := rep.Drops(); d != 0 {
		t.Fatalf("%d drops inside a window of posted buffers", d)
	}
}

// TestFigure4CycleAllocs holds the paper's five-step cycle to the one
// allocation that is not FLIPC's: the in-process fabric's frame copy.
func TestFigure4CycleAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	doms := newCluster(t, 2, Config{})
	a, b := doms[0], doms[1]
	sep, _ := a.NewSendEndpoint(4)
	rep, _ := b.NewRecvEndpoint(4)
	sb, _ := a.AllocBuffer()
	rb, _ := b.AllocBuffer()
	n := testing.AllocsPerRun(200, func() {
		if err := rep.Post(rb); err != nil {
			t.Fatal(err)
		}
		if err := sep.Send(sb, rep.Addr(), 16); err != nil {
			t.Fatal(err)
		}
		a.Poll()
		b.Poll()
		if m, ok := rep.Receive(); !ok || m != rb {
			t.Fatal("message not delivered into the posted buffer")
		}
		if m, ok := sep.Acquire(); !ok || m != sb {
			t.Fatal("send buffer not returned")
		}
	})
	if n > 1 {
		t.Fatalf("Post/Send/Poll/Poll/Receive/Acquire allocates %v objects, want <= 1", n)
	}
}
