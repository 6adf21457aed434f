package main

import (
	"encoding/binary"
	"fmt"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

const (
	gatewayTopics      = 16
	gatewayPayload     = 64
	gatewayMessageSize = 128
	// gatewayPattern is the wildcard client B holds. The registry's
	// pattern grammar separates segments with dots.
	gatewayPattern = "bench.*"
	// frameHeader is the client protocol's length prefix, which
	// Mux.HandleFrame and DecodeBody take already stripped.
	frameHeader = 2
)

// gatewayRig drives a gateway.Mux poll-mode on one domain: client A's
// publish frames go in through HandleFrame, cross the fabric to the
// mux's own class inbox, and come out of client B's queue.
type gatewayRig struct {
	d     *core.Domain
	mux   *gateway.Mux
	a, b  *gateway.Client
	g     *gen
	chk   *checker
	frame []byte
	body  []byte
	errs  uint64 // protocol error frames the mux queued for A or B
}

// newGatewayDomain sizes the domain for the mux's three class inboxes
// and one cached publisher per topic. An engine pass scans every
// endpoint slot, so the slot count is part of what is measured.
func newGatewayDomain() (*core.Domain, error) {
	tr, err := interconnect.NewFabric(512).Attach(0)
	if err != nil {
		return nil, err
	}
	return core.NewDomain(core.Config{
		Node: 0, MessageSize: gatewayMessageSize,
		NumBuffers: 2048, MaxEndpoints: 32, DefaultQueueDepth: 128,
		Engine: engine.Config{},
	}, tr)
}

func newGatewayRig(c *config) (*gatewayRig, error) {
	r := &gatewayRig{g: newGen(c.seed, gatewayPayload), body: make([]byte, gatewayPayload)}
	r.chk = newChecker(r.g, gatewayTopics, 0)
	var err error
	if r.d, err = newGatewayDomain(); err != nil {
		return nil, err
	}
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	if r.mux, err = gateway.NewMux(r.d, gateway.Config{Name: "bench-gw", Dir: dir}); err != nil {
		r.close()
		return nil, err
	}
	r.a, r.b = r.mux.Attach(), r.mux.Attach()
	for _, f := range []struct {
		c *gateway.Client
		f gateway.Frame
	}{
		{r.a, gateway.Frame{Op: gateway.OpHello, Ver: 1, Name: "a"}},
		{r.b, gateway.Frame{Op: gateway.OpHello, Ver: 1, Name: "b"}},
		{r.b, gateway.Frame{Op: gateway.OpSub, Class: uint8(topic.Normal), Name: gatewayPattern}},
	} {
		if err := r.handle(f.c, f.f); err != nil {
			r.close()
			return nil, err
		}
	}
	if _, ok := r.a.PopOut(); ok {
		r.close()
		return nil, fmt.Errorf("mux answered the hello with an error frame")
	}
	if _, ok := r.b.PopOut(); ok {
		r.close()
		return nil, fmt.Errorf("mux answered the subscribe with an error frame")
	}
	return r, nil
}

func (r *gatewayRig) handle(c *gateway.Client, f gateway.Frame) error {
	var err error
	if r.frame, err = gateway.AppendFrame(r.frame[:0], f); err != nil {
		return err
	}
	r.mux.HandleFrame(c, r.frame[frameHeader:])
	return nil
}

func (r *gatewayRig) send(seq uint64, tr *tracer) error {
	r.g.fill(r.body, seq)
	var err error
	r.frame, err = gateway.AppendFrame(r.frame[:0], gateway.Frame{
		Op: gateway.OpPub, Class: uint8(topic.Normal), Name: r.g.topics[seq%gatewayTopics], Payload: r.body})
	if err != nil {
		return err
	}
	tr.begin("gateway.handle_frame", seq)
	r.mux.HandleFrame(r.a, r.frame[frameHeader:])
	tr.end()
	return nil
}

func (r *gatewayRig) pump(tr *tracer) (int, error) {
	tr.begin("engine.poll.src", 0)
	if r.d.Poll() {
		tr.end()
	} else {
		tr.cancel()
	}
	tr.begin("gateway.pump", 0)
	if r.mux.Pump() > 0 {
		tr.end()
	} else {
		tr.cancel()
	}
	got := 0
	for {
		tr.begin("gateway.popout", 0)
		b, ok := r.b.PopOut()
		if !ok {
			tr.cancel()
			break
		}
		tr.end()
		tr.begin("gateway.decode", 0)
		f, err := gateway.DecodeBody(b[frameHeader:])
		tr.end()
		if err != nil {
			return got, fmt.Errorf("client B got an undecodable frame: %w", err)
		}
		if f.Op != gateway.OpDeliver {
			r.errs++
			continue
		}
		if err := r.chk.check(f.Payload); err != nil {
			return got, err
		}
		if seq := binary.BigEndian.Uint64(f.Payload); f.Name != r.g.topics[seq%gatewayTopics] {
			return got, fmt.Errorf("sequence %d delivered on topic %q, published on %q", seq, f.Name, r.g.topics[seq%gatewayTopics])
		}
		got++
	}
	for {
		if _, ok := r.a.PopOut(); !ok {
			break
		}
		r.errs++
	}
	return got, nil
}

func (r *gatewayRig) ledger() map[string]uint64 {
	_, dropped, throttled := r.b.Ledgers()
	st := r.mux.Stats()
	l := map[string]uint64{
		"client.queue_dropped":   dropped,
		"client.queue_throttled": throttled,
		"mux.publish_errors":     st.PubErrs,
		"mux.unmatched":          st.Unmatched,
		"mux.bad_frames":         st.BadFrames,
	}
	if r.errs > st.PubErrs { // error frames no refused publish explains
		l["mux.other_error_frames"] = r.errs - st.PubErrs
	}
	for lane := 0; lane < gateway.NumClasses; lane++ {
		l["mux.inbox_drops"] += r.mux.InboxDrops(lane)
	}
	return l
}

func (r *gatewayRig) counters() map[string]float64 {
	_, dropped, throttled := r.b.Ledgers()
	s := r.d.Engine().Stats()
	return map[string]float64{
		"engine.polls":               float64(s.Polls),
		"engine.recv_drops":          float64(s.RecvDrops),
		"engine.wire_busy":           float64(s.WireBusy),
		"gateway.client_queue_drops": float64(dropped + throttled),
	}
}

func (r *gatewayRig) close() {
	if r.d != nil {
		r.d.Close()
	}
}
