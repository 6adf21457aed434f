package gateway

import (
	"bytes"
	"strings"
	"testing"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/israce"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// pollRig is a gateway on one manually polled domain, as the benchmark
// drives it: client publishes leave through the mux's own publishers,
// cross the fabric and land on its class inbox.
type pollRig struct {
	d   *core.Domain
	reg *nameservice.TopicRegistry
	mux *Mux
}

func newPollRig(t *testing.T, cfg Config) *pollRig {
	t.Helper()
	tr, err := interconnect.NewFabric(512).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: 0, MessageSize: 256, NumBuffers: 1024, MaxEndpoints: 32}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	r := &pollRig{d: d, reg: nameservice.NewTopicRegistry()}
	cfg.Name, cfg.Dir = "gw-poll", topic.LocalDirectory{R: r.reg}
	if r.mux, err = NewMux(d, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// subscriber attaches a client holding pattern on the normal lane.
func (r *pollRig) subscriber(t *testing.T, id, pattern string) *Client {
	t.Helper()
	c := r.mux.Attach()
	hello(t, r.mux, c, id)
	r.mux.HandleFrame(c, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: pattern}))
	if frames := popFrames(t, c); len(frames) != 0 {
		t.Fatalf("subscribe answered %+v", frames)
	}
	return c
}

// deliver publishes body from c and pumps until the mux has fanned it out.
func (r *pollRig) deliver(t *testing.T, c *Client, body []byte) {
	t.Helper()
	r.mux.HandleFrame(c, body)
	for i := 0; r.mux.Pump() == 0; i++ {
		if i == 100 {
			t.Fatal("publish never reached the class inbox")
		}
		r.d.Poll()
	}
}

// The whole edge path — a client publish, the engine pass, the pump's
// fanout, the writer's pop and the client's decode — allocates only the
// fabric's frame chunks, at a short and at a long topic name. A chunk
// holds 1 KiB of frames, 4 of this rig's 256-byte ones, so N cycles cost
// at most ⌈N/4⌉+1 objects.
func TestDeliverPathAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, name := range []string{"bench.topic12", "bench." + strings.Repeat("t", 144)} {
		r := newPollRig(t, Config{})
		pubC := r.mux.Attach()
		hello(t, r.mux, pubC, "a")
		sub := r.subscriber(t, "b", "bench.*")
		body := frameBody(t, Frame{Op: OpPub, Class: uint8(topic.Normal), Name: name, Payload: make([]byte, 64)})
		const cycles, perChunk = 64, 4
		got := 0
		n := testing.AllocsPerRun(20, func() {
			for range cycles {
				r.deliver(t, pubC, body)
				if b, ok := sub.PopOut(); ok {
					if f, err := DecodeBody(b[frameHeaderBytes:]); err == nil && f.Op == OpDeliver && f.Name == name {
						got++
					}
				}
			}
		})
		if got != 21*cycles {
			t.Fatalf("%d-byte topic: %d of %d deliveries popped and decoded", len(name), got, 21*cycles)
		}
		if want := (cycles+perChunk-1)/perChunk + 1; n > float64(want) {
			t.Fatalf("%d-byte topic: %d publishes to pop and decode allocate %v objects, want at most %d (the fabric's chunks)",
				len(name), cycles, n, want)
		}
	}
}

// A popped frame stays intact until its client's next PopOut, however
// hard the slab turns over under other clients — and across a Detach
// of the holder, until the holder's last PopOut hands it back.
func TestPoppedFrameOutlivesSlotReuse(t *testing.T) {
	r := newPollRig(t, Config{ClientQueue: 4})
	pubC := r.mux.Attach()
	hello(t, r.mux, pubC, "pub")
	holder := r.subscriber(t, "holder", "hold.*")
	// The holder's lane fills and is reclaimed under it while it holds.
	r.mux.HandleFrame(holder, frameBody(t, Frame{Op: OpSub, Class: uint8(topic.Normal), Name: "flood.*"}))
	others := []*Client{r.subscriber(t, "o1", "flood.*"), r.subscriber(t, "o2", "flood.*")}
	pub := func(name string, i int) {
		r.deliver(t, pubC, frameBody(t, Frame{Op: OpPub, Class: uint8(topic.Normal), Name: name, Payload: bytes.Repeat([]byte{byte(i)}, 100)}))
	}
	pub("hold.x", 0xAA)
	held, ok := holder.PopOut()
	if !ok {
		t.Fatal("holder got nothing")
	}
	want := append([]byte(nil), held...)
	flood := func() {
		for i := 0; i < 10*r.mux.cfg.ClientQueue; i++ {
			pub("flood.x", i)
			for _, c := range others {
				popFrames(t, c)
			}
		}
		if !bytes.Equal(held, want) {
			t.Fatalf("held frame rewritten under it:\n got % x\nwant % x", held, want)
		}
		for _, i := range r.mux.slab.free {
			if &(*r.mux.slab.slots.Load())[i][0] == &held[0] {
				t.Fatal("held frame's slot is on the free list")
			}
		}
	}
	flood()
	r.mux.Detach(holder)
	flood()

	// Every slot comes home once the holder and the others are done.
	if _, ok := holder.PopOut(); ok {
		t.Fatal("PopOut after Detach returned a frame")
	}
	for _, c := range others {
		r.mux.Detach(c)
		c.PopOut()
	}
	r.mux.Pump()
	if free, all := len(r.mux.slab.free), len(*r.mux.slab.slots.Load()); free != all {
		t.Fatalf("%d of %d slab slots free after every client left", free, all)
	}
	if err := FramingLaw(r.mux, append(others, holder)...).Err(); err != nil {
		t.Fatal(err)
	}
}

// The pump kicks a writer only while its wake-up flag is armed: an
// empty PopOut arms it, a successful one disarms it.
func TestWakeupFlag(t *testing.T) {
	r := newPollRig(t, Config{})
	pubC := r.mux.Attach()
	hello(t, r.mux, pubC, "pub")
	c := r.subscriber(t, "w", "wake.*")
	body := frameBody(t, Frame{Op: OpPub, Class: uint8(topic.Normal), Name: "wake.x", Payload: []byte("z")})
	kicked := func() bool {
		select {
		case <-c.Kick():
			return true
		default:
			return false
		}
	}
	kicked()                 // whatever setup left behind
	r.deliver(t, pubC, body) // popFrames left the flag armed
	if !kicked() {
		t.Fatal("armed writer not kicked")
	}
	if _, ok := c.PopOut(); !ok {
		t.Fatal("delivery missing")
	}
	r.deliver(t, pubC, body)
	if kicked() {
		t.Fatal("busy writer kicked")
	}
}
