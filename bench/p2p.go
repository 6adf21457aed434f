package main

import (
	"fmt"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/nettrans"
	"flipc/internal/wire"
)

// p2pMessageSize is the paper's reference size: 128-byte messages carry
// a 120-byte payload.
const p2pMessageSize = 128

// p2pDepth is the endpoint queue depth and the number of posted receive
// buffers; it only has to exceed the stream window.
const p2pDepth = 64

// p2pRig is two domains exchanging raw core messages one way, over the
// in-process fabric or over two nettrans transports on loopback TCP.
type p2pRig struct {
	src, dst *core.Domain
	trans    []*nettrans.Transport // nil on the fabric
	sep, rep *core.Endpoint
	free     []*core.Message // reclaimed send buffers
	g        *gen
	chk      *checker
	cur      uint64 // newest sequence sent: the msg tag of poll spans
	srcDone  int64  // end of the last working source poll, 0 once matched
	sendPoll uint64 // source polls that did work (each ends in one flush)
}

func newFabricPair(messageSize int, eng engine.Config) (src, dst *core.Domain, err error) {
	fabric := interconnect.NewFabric(4 * p2pDepth)
	mk := func(node wire.NodeID) (*core.Domain, error) {
		tr, err := fabric.Attach(node)
		if err != nil {
			return nil, err
		}
		return newDomain(node, messageSize, tr, eng)
	}
	if src, err = mk(0); err != nil {
		return nil, nil, err
	}
	if dst, err = mk(1); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

func newDomain(node wire.NodeID, messageSize int, tr interconnect.Transport, eng engine.Config) (*core.Domain, error) {
	return core.NewDomain(core.Config{
		Node: node, MessageSize: messageSize,
		NumBuffers: 4 * p2pDepth, MaxEndpoints: 4, DefaultQueueDepth: p2pDepth,
		Engine: eng,
	}, tr)
}

// newTCPPair listens twice on loopback with flipcd's -batch settings
// and dials one way; batched selects the corked transport.
func newTCPPair(messageSize int, batched bool) ([]*nettrans.Transport, error) {
	var ts []*nettrans.Transport
	for node := wire.NodeID(0); node < 2; node++ {
		t, err := nettrans.ListenConfig(nettrans.Config{
			Node: node, Addr: "127.0.0.1:0", MessageSize: messageSize,
			BatchWrites: batched, MaxBatchFrames: 64, FlushDeadline: 0,
		})
		if err != nil {
			closeAll(ts)
			return nil, err
		}
		ts = append(ts, t)
	}
	if err := ts[0].Dial(1, ts[1].Addr()); err != nil {
		closeAll(ts)
		return nil, err
	}
	return ts, nil
}

func closeAll(ts []*nettrans.Transport) {
	for _, t := range ts {
		t.Close()
	}
}

func newP2PRig(c *config, tcp bool, messageSize int) (*p2pRig, error) {
	r := &p2pRig{g: newGen(c.seed, wire.MaxPayload(messageSize))}
	r.chk = newChecker(r.g, 1, 0)
	var err error
	if tcp {
		if r.trans, err = newTCPPair(messageSize, true); err != nil {
			return nil, err
		}
		if r.src, err = newDomain(0, messageSize, r.trans[0], engine.Config{}); err == nil {
			r.dst, err = newDomain(1, messageSize, r.trans[1], engine.Config{})
		}
	} else {
		r.src, r.dst, err = newFabricPair(messageSize, engine.Config{})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	if r.sep, err = r.src.NewSendEndpoint(p2pDepth); err == nil {
		r.rep, err = r.dst.NewRecvEndpoint(p2pDepth)
	}
	for i := 0; err == nil && i < p2pDepth; i++ {
		var sm, rm *core.Message
		if sm, err = r.src.AllocBuffer(); err != nil {
			break
		}
		r.free = append(r.free, sm)
		if rm, err = r.dst.AllocBuffer(); err == nil {
			err = r.rep.Post(rm)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *p2pRig) send(seq uint64, tr *tracer) error {
	if len(r.free) == 0 {
		return fmt.Errorf("no reclaimed send buffer: the window outran the pool")
	}
	m := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	n := r.g.fill(m.Payload(), seq)
	r.cur = seq
	tr.begin("core.send", seq)
	err := r.sep.Send(m, r.rep.Addr(), n)
	tr.end()
	return err
}

func (r *p2pRig) pump(tr *tracer) (int, error) {
	tr.begin("engine.poll.src", r.cur)
	if r.src.Poll() {
		tr.end()
		r.srcDone = tr.clock()
		r.sendPoll++
	} else {
		tr.cancel()
	}
	dstStart := tr.clock()
	tr.begin("engine.poll.dst", r.cur)
	if r.dst.Poll() {
		tr.end()
		if r.trans != nil && r.srcDone != 0 {
			tr.add("wait.transport", r.srcDone, dstStart, r.cur)
			r.srcDone = 0
		}
	} else {
		tr.cancel()
	}
	got := 0
	for {
		tr.begin("core.receive", r.cur)
		m, ok := r.rep.Receive()
		if !ok {
			tr.cancel()
			break
		}
		tr.end()
		if err := r.chk.check(m.Payload()[:m.Len()]); err != nil {
			return got, err
		}
		tr.begin("core.post", r.cur)
		err := r.rep.Post(m)
		tr.end()
		if err != nil {
			return got, fmt.Errorf("repost: %w", err)
		}
		got++
	}
	for {
		tr.begin("core.acquire", r.cur)
		m, ok := r.sep.Acquire()
		if !ok {
			tr.cancel()
			break
		}
		tr.end()
		if m.Dropped() {
			return got, fmt.Errorf("engine refused send buffer %d", m.ID())
		}
		r.free = append(r.free, m)
	}
	return got, nil
}

func (r *p2pRig) ledger() map[string]uint64 {
	l := map[string]uint64{
		"endpoint.drops":      r.rep.Drops() + r.sep.Drops(),
		"engine.addr_drops":   r.dst.Engine().Stats().AddrDrops,
		"engine.bad_frames":   r.dst.Engine().Stats().BadFrames,
		"engine.send_refused": r.src.Engine().Stats().SendRefused,
	}
	for _, t := range r.trans {
		s := t.Stats()
		l["nettrans.flush_lost"] += s.FlushLost
		l["nettrans.rx_drops"] += s.RxDrops
	}
	return l
}

func (r *p2pRig) counters() map[string]float64 {
	ss, ds := r.src.Engine().Stats(), r.dst.Engine().Stats()
	c := map[string]float64{
		"engine.polls":      float64(ss.Polls + ds.Polls),
		"engine.recv_drops": float64(ds.RecvDrops),
		"engine.wire_busy":  float64(ss.WireBusy),
	}
	for _, t := range r.trans {
		s := t.Stats()
		c["nettrans.calls"] += float64(s.Sent + s.Delivered)
		c["nettrans.flush_held"] += float64(s.FlushHeld)
		c["nettrans.flush_lost"] += float64(s.FlushLost)
		c["nettrans.rx_drops"] += float64(s.RxDrops)
	}
	if r.trans != nil {
		c["nettrans.sent"] = float64(r.trans[0].Stats().Sent)
		c["nettrans.send_polls"] = float64(r.sendPoll)
	}
	return c
}

func (r *p2pRig) close() {
	if r.src != nil {
		r.src.Close()
	}
	if r.dst != nil {
		r.dst.Close()
	}
	closeAll(r.trans)
}
