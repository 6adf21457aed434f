package faultinject_test

import (
	"fmt"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nettrans"
	"flipc/internal/sim"
	"flipc/internal/wire"
)

// TestSelfSendConformance: every Transport loops a frame addressed to its
// own node back to itself. A domain sends to an inbox on its own node
// through a one-buffer outbox, so each send must be delivered and
// complete before the next can take the buffer; a transport that
// refused self-addressed frames would leave the first send queued and
// the outbox window full for good.
func TestSelfSendConformance(t *testing.T) {
	const node, sends = wire.NodeID(2), 5
	listen := func(t *testing.T) interconnect.Transport {
		tr, err := nettrans.ListenConfig(nettrans.Config{Node: node, Addr: "127.0.0.1:0", MessageSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	fabric := func(t *testing.T) interconnect.Transport {
		tr, err := interconnect.NewFabric(16).Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	wrap := func(attach func(*testing.T) interconnect.Transport) func(*testing.T) interconnect.Transport {
		return func(t *testing.T) interconnect.Transport {
			tr, err := faultinject.Wrap(attach(t), faultinject.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	clock := sim.NewClock()
	mesh := func(t *testing.T) interconnect.Transport {
		m, err := interconnect.NewMesh(clock, interconnect.DefaultMeshConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := m.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, c := range []struct {
		name   string
		attach func(*testing.T) interconnect.Transport
	}{
		{"fabric", fabric},
		{"nettrans", listen},
		{"mesh", mesh},
		{"faultinject/fabric", wrap(fabric)},
		{"faultinject/nettrans", wrap(listen)},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := core.NewDomain(core.Config{Node: node, MessageSize: 64, NumBuffers: 8}, c.attach(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			out, err := msglib.NewOutbox(d, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			in, err := msglib.NewInbox(d, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for i := 0; i < sends; i++ {
				want := fmt.Sprintf("to myself %d", i)
				sent := false
				for {
					if !sent {
						err := out.Send(in.Addr(), []byte(want))
						if err != nil && err != msglib.ErrBackpressure {
							t.Fatal(err)
						}
						sent = err == nil
					}
					d.Poll()
					clock.Run()
					if got, _, ok := in.Receive(); ok {
						if !sent || string(got) != want {
							t.Fatalf("received %q, want %q (sent %v)", got, want, sent)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("send %d: sent %v, never delivered (engine %+v)", i, sent, d.Engine().Stats())
					}
				}
			}
			if !out.Flush() {
				t.Fatal("the last send never completed")
			}
			if st := d.Engine().Stats(); st.PeerDown != 0 || st.Sent != sends || st.Delivered != sends {
				t.Fatalf("engine stats %+v, want %d sent and delivered, no peer-down", st, sends)
			}
		})
	}
}
