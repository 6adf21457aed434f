package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/interconnect"
	"flipc/internal/mem"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
	"flipc/internal/waitfree"
	"flipc/internal/wire"
)

// A stage row times one layer's exported calls in isolation, with the
// sizes and inputs of the workload, from outside the layer. A stage is
// built once and returns the body of one batch: a pass over a few timed
// segments. A segment's value is its wall time over its call count, and
// the row is the quiet decile over the batches. The stages' batches are
// interleaved (batch b of every stage, then batch b+1), because a
// stage's own batches last microseconds: run back to back they would
// all sit inside one burst of interference, and the quiet decile only
// works on a series that outlasts the bursts. The first allocBatches
// batches count allocations instead (runtime.MemStats around each
// segment), which also warms the path.

const allocBatches = 4

type stages struct {
	batches int
	batch   int // current batch
	ns      map[string][]float64
	mallocs map[string]uint64
	calls   map[string]int
}

func newStages(c *config) *stages {
	return &stages{batches: c.stageBatches + allocBatches, ns: map[string][]float64{}, mallocs: map[string]uint64{}, calls: map[string]int{}}
}

// stage is one built stage: the body of a batch and its teardown.
type stage struct {
	body func() error
	done func()
}

// run interleaves the stages' batches.
func (s *stages) run(built []stage) error {
	for s.batch = 0; s.batch < s.batches; s.batch++ {
		for _, st := range built {
			if err := st.body(); err != nil {
				return err
			}
		}
	}
	return nil
}

// seg times (or, in the leading batches, counts allocations of) one
// segment of calls identical calls.
func (s *stages) seg(name string, calls int, fn func()) {
	if s.batch < allocBatches {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		s.mallocs[name] += m1.Mallocs - m0.Mallocs
		s.calls[name] += calls
		return
	}
	t0 := time.Now()
	fn()
	s.ns[name] = append(s.ns[name], float64(time.Since(t0))/float64(calls))
}

func (s *stages) row(name string) float64 {
	if len(s.ns[name]) == 0 {
		return 0
	}
	return quietDecile(s.ns[name])
}

func (s *stages) allocs(names ...string) float64 {
	total := 0.0
	for _, n := range names {
		if s.calls[n] > 0 {
			total += float64(s.mallocs[n]) / float64(s.calls[n])
		}
	}
	return total
}

// stageCore times the five-step cycle's application calls and the two
// working engine passes. Both engines run with a quantum of one, so
// that a pass with one queued send (or one arriving frame) can be
// repeated back to back without untimed work in between.
func stageCore(s *stages, messageSize int) (stage, error) {
	const n = p2pDepth
	one := engine.Config{SendQuantum: 1, RecvQuantum: 1}
	src, dst, err := newFabricPair(messageSize, one)
	if err != nil {
		return stage{}, err
	}
	st := stage{done: func() { src.Close(); dst.Close() }}
	sep, err := src.NewSendEndpoint(n)
	if err != nil {
		return st, err
	}
	rep, err := dst.NewRecvEndpoint(n)
	if err != nil {
		return st, err
	}
	var sm, rm [n]*core.Message
	for i := range sm {
		if sm[i], err = src.AllocBuffer(); err != nil {
			return st, err
		}
		if rm[i], err = dst.AllocBuffer(); err != nil {
			return st, err
		}
	}
	payload := src.MaxPayload()
	st.body = func() error {
		var fail error
		s.seg("core.post_ns", n, func() {
			for i := range rm {
				if err := rep.Post(rm[i]); err != nil {
					fail = err
				}
			}
		})
		s.seg("core.send_ns", n, func() {
			for i := range sm {
				if err := sep.Send(sm[i], rep.Addr(), payload); err != nil {
					fail = err
				}
			}
		})
		s.seg("engine.poll_send_ns", n, func() {
			for i := 0; i < n; i++ {
				src.Poll()
			}
		})
		s.seg("engine.poll_deliver_ns", n, func() {
			for i := 0; i < n; i++ {
				dst.Poll()
			}
		})
		s.seg("core.receive_ns", n, func() {
			for i := range rm {
				m, ok := rep.Receive()
				if !ok {
					fail = fmt.Errorf("stage core: message %d was not delivered", i)
					return
				}
				rm[i] = m
			}
		})
		s.seg("core.acquire_ns", n, func() {
			for i := range sm {
				m, ok := sep.Acquire()
				if !ok {
					fail = fmt.Errorf("stage core: send buffer %d was not reclaimed", i)
					return
				}
				sm[i] = m
			}
		})
		return fail
	}
	return st, nil
}

// stageEngineIdle times a pass that finds no work, on a domain shaped
// like a p2p workload's (4 endpoint slots, one in use) and on one with
// 64 slots all in use: the wait term of a one-way latency is this row
// times the empty passes made while the message is elsewhere.
func stageEngineIdle(s *stages) (stage, error) {
	const n = 128
	var ds [2]*core.Domain
	st := stage{done: func() {
		for _, d := range ds {
			if d != nil {
				d.Close()
			}
		}
	}}
	for i, shape := range []struct{ slots, inUse int }{{4, 1}, {64, 64}} {
		tr, err := interconnect.NewFabric(8).Attach(0)
		if err != nil {
			return st, err
		}
		if ds[i], err = core.NewDomain(core.Config{Node: 0, MessageSize: p2pMessageSize, NumBuffers: 8, MaxEndpoints: shape.slots, DefaultQueueDepth: 8}, tr); err != nil {
			return st, err
		}
		for ep := 0; ep < shape.inUse; ep++ {
			if ep%2 == 0 {
				_, err = ds[i].NewSendEndpoint(0)
			} else {
				_, err = ds[i].NewRecvEndpoint(0)
			}
			if err != nil {
				return st, err
			}
		}
	}
	st.body = func() error {
		for i, name := range []string{"engine.poll_idle_ns", "engine.poll_idle_64ep_ns"} {
			d := ds[i]
			s.seg(name, n, func() {
				for k := 0; k < n; k++ {
					d.Poll()
				}
			})
		}
		return nil
	}
	return st, nil
}

func stageCommbuf(s *stages, messageSize int) (stage, error) {
	const n = 512
	buf, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: messageSize, NumBuffers: 64})
	if err != nil {
		return stage{}, err
	}
	return stage{body: func() error {
		var fail error
		s.seg("commbuf.alloc_free_ns", n, func() {
			for i := 0; i < n; i++ {
				m, err := buf.AllocMsg()
				if err == nil {
					err = buf.FreeMsg(m)
				}
				if err != nil {
					fail = err
				}
			}
		})
		s.seg("commbuf.msg_by_id_ns", n, func() {
			for i := 0; i < n; i++ {
				if _, err := buf.MsgByID(uint64(i & 63)); err != nil {
					fail = err
				}
			}
		})
		return fail
	}}, nil
}

func stageWaitfree(s *stages) (stage, error) {
	const n = 512
	a, err := mem.New(mem.Config{ControlWords: 4096, LineWords: 4})
	if err != nil {
		return stage{}, err
	}
	qbase, err := a.AllocLines(waitfree.QueueWords(8, 4, true) / 4)
	if err != nil {
		return stage{}, err
	}
	q, err := waitfree.NewQueue(a, qbase, 8, 4, true)
	if err != nil {
		return stage{}, err
	}
	cbase, err := a.AllocLines(waitfree.CounterWords(4, true) / 4)
	if err != nil {
		return stage{}, err
	}
	ctr, err := waitfree.NewCounter(a, cbase, 4, true)
	if err != nil {
		return stage{}, err
	}
	app, eng := mem.NewView(a, mem.ActorApp), mem.NewView(a, mem.ActorEngine)
	return stage{body: func() error {
		var fail error
		s.seg("waitfree.queue_cycle_ns", n, func() {
			for i := 0; i < n; i++ {
				ok := q.Release(app, uint64(i))
				_, peek := q.ProcessPeek(eng)
				q.AdvanceProcess(eng)
				_, acq := q.Acquire(app)
				if !ok || !peek || !acq {
					fail = fmt.Errorf("stage waitfree: queue cycle %d failed", i)
				}
			}
		})
		s.seg("waitfree.counter_incr_ns", n, func() {
			for i := 0; i < n; i++ {
				ctr.Incr(eng)
			}
		})
		return fail
	}}, nil
}

func stageWire(s *stages, messageSize int) (stage, error) {
	const n = 512
	dst, err := wire.MakeAddr(1, 2, 3)
	if err != nil {
		return stage{}, err
	}
	size := wire.MaxPayload(messageSize)
	p := &wire.Packet{Dst: dst, Size: uint16(size), Payload: make([]byte, size)}
	frame := make([]byte, messageSize)
	return stage{body: func() error {
		var fail error
		s.seg("wire.encode_ns", n, func() {
			for i := 0; i < n; i++ {
				if err := wire.Encode(p, frame); err != nil {
					fail = err
				}
			}
		})
		s.seg("wire.decode_ns", n, func() {
			for i := 0; i < n; i++ {
				if _, err := wire.Decode(frame); err != nil {
					fail = err
				}
			}
		})
		return fail
	}}, nil
}

func stageInterconnect(s *stages, messageSize int) (stage, error) {
	const n = 256
	fabric := interconnect.NewFabric(n)
	a, err := fabric.Attach(0)
	if err != nil {
		return stage{}, err
	}
	b, err := fabric.Attach(1)
	if err != nil {
		return stage{}, err
	}
	frame := make([]byte, messageSize)
	return stage{body: func() error {
		var fail error
		s.seg("interconnect.fabric_trysend_ns", n, func() {
			for i := 0; i < n; i++ {
				if !a.TrySend(1, frame) {
					fail = fmt.Errorf("stage interconnect: fabric refused frame %d", i)
				}
			}
		})
		s.seg("interconnect.fabric_poll_ns", n, func() {
			for i := 0; i < n; i++ {
				if _, ok := b.Poll(); !ok {
					fail = fmt.Errorf("stage interconnect: frame %d missing", i)
				}
			}
		})
		return fail
	}}, nil
}

// flushRun is the frames corked before each timed FlushSends: one short
// of MaxBatchFrames, so that no TrySend flushes inline.
const flushRun = 63

// stageNettrans times the transport's calls on a loopback pair, corked
// as flipcd -batch runs it or writing every frame.
func stageNettrans(s *stages, messageSize int, corked bool) (stage, error) {
	const n = flushRun
	ts, err := newTCPPair(messageSize, corked)
	if err != nil {
		return stage{}, err
	}
	frame := make([]byte, messageSize)
	sent := uint64(0)
	// arrived waits until the reader goroutine has queued every frame sent.
	arrived := func() {
		deadline := time.Now().Add(stallAfter)
		for ts[1].Stats().Delivered < sent && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	send := "nettrans.trysend_uncorked_ns"
	if corked {
		send = "nettrans.trysend_ns"
	}
	return stage{done: func() { closeAll(ts) }, body: func() error {
		var fail error
		s.seg(send, n, func() {
			for i := 0; i < n; i++ {
				if !ts[0].TrySend(1, frame) {
					fail = fmt.Errorf("stage nettrans: transport refused frame %d", i)
				}
			}
		})
		sent += n
		if corked {
			s.seg("nettrans.flush_ns_per_frame", n, ts[0].FlushSends)
			// The reader's hand-off is a segment so that its allocations
			// are counted; its time is the scheduler's and is not a row.
			s.seg("nettrans.reader", n, arrived)
		} else {
			arrived()
		}
		poll := func() {
			for i := 0; i < n; i++ {
				if _, ok := ts[1].Poll(); !ok {
					fail = fmt.Errorf("stage nettrans: frame %d missing from the inbox", i)
				}
			}
		}
		if corked {
			s.seg("nettrans.poll_ns", n, poll)
		} else {
			poll()
		}
		return fail
	}}, nil
}

func stageMsglib(s *stages) (stage, error) {
	const n = 32
	src, dst, err := newFabricPair(topicMessageSize, engine.Config{})
	if err != nil {
		return stage{}, err
	}
	st := stage{done: func() { src.Close(); dst.Close() }}
	out, err := msglib.NewOutbox(src, p2pDepth, p2pDepth)
	if err != nil {
		return st, err
	}
	in, err := msglib.NewInbox(dst, p2pDepth, p2pDepth)
	if err != nil {
		return st, err
	}
	payload := make([]byte, topicPayload)
	st.body = func() error {
		var fail error
		s.seg("msglib.outbox_send_ns", n, func() {
			for i := 0; i < n; i++ {
				if err := out.Send(in.Addr(), payload); err != nil {
					fail = err
				}
			}
		})
		for i := 0; i < n; i++ {
			src.Poll()
			dst.Poll()
		}
		s.seg("msglib.inbox_receive_ns", n, func() {
			for i := 0; i < n; i++ {
				if _, _, ok := in.Receive(); !ok {
					fail = fmt.Errorf("stage msglib: message %d was not delivered", i)
				}
			}
		})
		return fail
	}
	return st, nil
}

// stageTopic times Publish (fanout 8) and Subscriber.Receive on the
// workload's own rig; with durable set it times the journaled publish.
func stageTopic(s *stages, c *config, durable bool) (stage, error) {
	const pubs = 4
	r, err := newTopicRig(c, durable)
	if err != nil {
		return stage{}, err
	}
	publish, receive := "topic.publish_ns", "topic.receive_ns"
	if durable {
		publish, receive = "topic.durable_publish_ns", "topic.durable_receive"
	}
	return stage{done: r.close, body: func() error {
		var fail error
		s.seg(publish, pubs, func() {
			for i := 0; i < pubs; i++ {
				if _, err := r.pub.Publish(r.payload); err != nil {
					fail = err
				}
			}
		})
		for i := 0; i <= pubs; i++ {
			for _, d := range r.domains {
				d.Poll()
			}
		}
		got := 0
		s.seg(receive, pubs*topicSubs, func() {
			for _, sub := range r.subs {
				for {
					if _, _, ok := sub.Receive(); !ok {
						break
					}
					got++
				}
			}
		})
		if fail == nil && got != pubs*topicSubs {
			fail = fmt.Errorf("stage topic: %d of %d deliveries arrived", got, pubs*topicSubs)
		}
		return fail
	}}, nil
}

// stageDuralog times Append on a growing log and a full Replay of a
// second log that holds the workload's backlog.
func stageDuralog(s *stages, c *config) (stage, error) {
	const n = 256
	dir, err := c.tempDir()
	if err != nil {
		return stage{}, err
	}
	var logs [2]*duralog.Log
	st := stage{done: func() {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
		os.RemoveAll(dir)
	}}
	for i, name := range []string{"append", "replay"} {
		if logs[i], err = duralog.Open(filepath.Join(dir, name), duralog.Options{NoSync: true}); err != nil {
			return st, err
		}
	}
	payload := make([]byte, topicPayload)
	for i := 0; i < backlogRecords; i++ {
		if _, err := logs[1].Append(topic.Normal.Flags(), payload); err != nil {
			return st, err
		}
	}
	if err := logs[1].Sync(); err != nil {
		return st, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "replay", "seg-*.log"))
	if err != nil {
		return st, err
	}
	var bytes int64
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	s.ns["duralog.bytes_per_record"] = []float64{float64(bytes) / backlogRecords}
	st.body = func() error {
		var fail error
		s.seg("duralog.append_ns", n, func() {
			for i := 0; i < n; i++ {
				if _, err := logs[0].Append(topic.Normal.Flags(), payload); err != nil {
					fail = err
				}
			}
		})
		s.seg("duralog.replay_ns_per_record", backlogRecords, func() {
			seen := 0
			err := logs[1].Replay(1, func(uint64, uint8, []byte) error { seen++; return nil })
			if err == nil && seen != backlogRecords {
				err = fmt.Errorf("stage duralog: replay saw %d of %d records", seen, backlogRecords)
			}
			if err != nil {
				fail = err
			}
		})
		return fail
	}
	return st, nil
}

// stageGateway times the client codec and the mux's three calls on the
// workload's own rig.
func stageGateway(s *stages, c *config) (stage, error) {
	const n = 32
	r, err := newGatewayRig(c)
	if err != nil {
		return stage{}, err
	}
	var in, out [n][]byte
	return stage{done: r.close, body: func() error {
		var fail error
		s.seg("gateway.append_frame_ns", n, func() {
			for i := range in {
				var err error
				in[i], err = gateway.AppendFrame(in[i][:0], gateway.Frame{
					Op: gateway.OpPub, Class: uint8(topic.Normal), Name: r.g.topics[i%gatewayTopics], Payload: r.body})
				if err != nil {
					fail = err
				}
			}
		})
		s.seg("gateway.handle_publish_ns", n, func() {
			for i := range in {
				r.mux.HandleFrame(r.a, in[i][frameHeader:])
			}
		})
		for i := 0; i < n; i++ {
			r.d.Poll()
		}
		s.seg("gateway.pump_ns_per_delivery", n, func() {
			if got := r.mux.Pump(); got != n {
				fail = fmt.Errorf("stage gateway: pump moved %d of %d frames", got, n)
			}
		})
		s.seg("gateway.popout_ns", n, func() {
			for i := range out {
				b, ok := r.b.PopOut()
				if !ok {
					fail = fmt.Errorf("stage gateway: delivery %d missing from the client queue", i)
					return
				}
				out[i] = b
			}
		})
		if fail != nil {
			return fail
		}
		s.seg("gateway.decode_body_ns", n, func() {
			for i := range out {
				if _, err := gateway.DecodeBody(out[i][frameHeader:]); err != nil {
					fail = err
				}
			}
		})
		return fail
	}}, nil
}

// socketRTT is the one diagnostic that crosses the real Server: the
// median ping/pong round trip of two dialled clients. Its idle pump
// sleep and goroutine hand-offs are timer- and scheduler-bound on a
// small guest, so it is recorded and never gated.
func socketRTT() (float64, error) {
	d, err := newGatewayDomain()
	if err != nil {
		return 0, err
	}
	defer d.Close()
	mux, err := gateway.NewMux(d, gateway.Config{Name: "bench-gw", Dir: topic.LocalDirectory{R: nameservice.NewTopicRegistry()}})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := gateway.NewServer(mux)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	var conns [2]*gateway.Conn
	for i := range conns {
		if conns[i], err = gateway.Dial(ln.Addr().String(), fmt.Sprintf("c%d", i)); err != nil {
			return 0, err
		}
		defer conns[i].Close()
	}
	const pings = 2000
	rtts := make([]float64, 0, pings)
	echo := []byte("ping")
	for i := 0; i < pings; i++ {
		g := conns[i%2]
		t0 := time.Now()
		if err := g.Ping(echo); err != nil {
			return 0, err
		}
		g.SetReadDeadline(t0.Add(stallAfter))
		f, err := g.Recv()
		if err != nil {
			return 0, err
		}
		if f.Op != gateway.OpPong {
			return 0, fmt.Errorf("socket rtt: got op %d, want pong", f.Op)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	return quantile(rtts, 0.5), nil
}
