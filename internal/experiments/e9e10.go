package experiments

import (
	"fmt"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/flowctl"
	"flipc/internal/interconnect"
	"flipc/internal/kkt"
	"flipc/internal/mem"
	"flipc/internal/msglib"
	"flipc/internal/sim"
	"flipc/internal/stats"
	"flipc/internal/wire"
)

// E9Result is the drop/flow-control behaviour study.
type E9Result struct {
	SentRaw          uint64
	DeliveredRaw     uint64
	DroppedRaw       uint64
	CounterHarvested uint64
	SentWindowed     uint64
	DroppedWindowed  uint64
	Table            Table
}

// E9DropsAndFlowControl exercises the optimistic transport's defining
// behaviour (§Message Transfer): arrivals with no posted buffer are
// discarded and counted exactly (the two-location counter never loses a
// drop across read-and-reset), and a credit window layered *above*
// FLIPC eliminates the drops entirely.
func E9DropsAndFlowControl(seed int64) (*E9Result, error) {
	res := &E9Result{}

	// Phase 1: raw overrun. Sender blasts 64 messages at a receiver
	// with a 4-buffer window that never reposts.
	fabric := interconnect.NewFabric(256)
	mk := func(node wire.NodeID) (*core.Domain, error) {
		tr, err := fabric.Attach(node)
		if err != nil {
			return nil, err
		}
		return core.NewDomain(core.Config{Node: node, MessageSize: 64, NumBuffers: 80,
			DefaultQueueDepth: 16}, tr)
	}
	a, err := mk(0)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := mk(1)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	pump := func() {
		for i := 0; i < 400; i++ {
			work := a.Poll()
			if b.Poll() {
				work = true
			}
			if !work {
				return
			}
		}
	}
	sep, err := a.NewSendEndpoint(16)
	if err != nil {
		return nil, err
	}
	rep, err := b.NewRecvEndpoint(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		m, err := b.AllocBuffer()
		if err != nil {
			return nil, err
		}
		if err := rep.Post(m); err != nil {
			return nil, err
		}
	}
	const blast = 64
	for i := 0; i < blast; i++ {
		m, err := a.AllocBuffer()
		if err != nil {
			return nil, err
		}
		if err := sep.Send(m, rep.Addr(), 1); err != nil {
			return nil, fmt.Errorf("E9 send %d: %w", i, err)
		}
		pump()
		// Reclaim to keep the buffer pool alive; harvest the drop
		// counter mid-stream to prove read-and-reset loses nothing.
		if back, ok := sep.Acquire(); ok {
			a.FreeBuffer(back)
		}
		if i%10 == 9 {
			res.CounterHarvested += rep.ReadAndResetDrops()
		}
	}
	pump()
	res.CounterHarvested += rep.ReadAndResetDrops()
	res.SentRaw = blast
	for {
		m, ok := rep.Receive()
		if !ok {
			break
		}
		res.DeliveredRaw++
		b.FreeBuffer(m)
	}
	res.DroppedRaw = res.SentRaw - res.DeliveredRaw

	// Phase 2: the same blast through a credit window — zero drops. The
	// sender charges a flowctl.Account per send; after every receive the
	// receiver returns its cumulative disposed count (consumed + dropped)
	// on a reverse channel, so a lost advert is subsumed by the next.
	const window = 4
	data, err := msglib.NewOutbox(a, 0, window)
	if err != nil {
		return nil, err
	}
	creditIn, err := msglib.NewInbox(a, 0, 2*window)
	if err != nil {
		return nil, err
	}
	in, err := msglib.NewInbox(b, 0, window)
	if err != nil {
		return nil, err
	}
	creditOut, err := msglib.NewOutbox(b, 0, window)
	if err != nil {
		return nil, err
	}
	var acct flowctl.Account
	acct.Grant(0, window) // the receiver's whole inbox, granted up front
	var sent, got uint64
	var advert [flowctl.CreditFrameBytes]byte
	for got < blast {
		for sent < blast && acct.Available() > 0 {
			if data.Send(in.Addr(), []byte{byte(sent)}) != nil {
				break // backpressure; drain below
			}
			acct.Spend()
			sent++
		}
		pump()
		for _, _, ok := in.Receive(); ok; _, _, ok = in.Receive() {
			got++
			n := flowctl.EncodeCredit(advert[:], in.Addr(), window, in.Received()+in.Drops())
			if err := creditOut.Send(creditIn.Addr(), advert[:n]); err != nil {
				return nil, fmt.Errorf("E9 credit advert: %w", err)
			}
		}
		pump()
		for p, _, ok := creditIn.Receive(); ok; p, _, ok = creditIn.Receive() {
			if _, w, disposed, ok := flowctl.DecodeCredit(p); ok {
				acct.Grant(disposed, w)
			}
		}
	}
	res.SentWindowed = sent
	res.DroppedWindowed = in.Drops()

	res.Table = Table{
		ID:      "E9",
		Title:   "Optimistic discard semantics and layered flow control",
		Note:    "no-buffer arrivals are discarded and counted; flow control belongs to applications/libraries above FLIPC",
		Columns: []string{"configuration", "sent", "delivered", "dropped", "counter"},
		Rows: [][]string{
			{"raw overrun (4-buffer window)",
				fmt.Sprintf("%d", res.SentRaw),
				fmt.Sprintf("%d", res.DeliveredRaw),
				fmt.Sprintf("%d", res.DroppedRaw),
				fmt.Sprintf("%d (read-and-reset, lossless)", res.CounterHarvested)},
			{"credit window (flowctl, window=4)",
				fmt.Sprintf("%d", res.SentWindowed),
				fmt.Sprintf("%d", got),
				fmt.Sprintf("%d", res.DroppedWindowed),
				"0"},
		},
	}
	return res, nil
}

// E10Result compares the native engine binding against the KKT
// development binding.
type E10Result struct {
	NativeMicros float64
	KKTMicros    float64
	KKTRPCs      uint64
	Table        Table
}

// KKT path model constants: each message is one synchronous RPC — a
// kernel trap and wire crossing for the request, remote kernel
// processing, and an acknowledgment crossing back before the sender
// proceeds (the paper: "KKT uses an RPC to deliver each message").
const (
	kktTrap       = 5 * sim.Microsecond
	kktKernelWork = 9 * sim.Microsecond
	kktAckBytes   = 32
)

// E10KKTVsNative runs the identical library + engine code over the KKT
// transport binding (functionally, in process) and models its per
// message time, against the measured native binding — the development
// story of §Implementation.
func E10KKTVsNative(seed int64) (*E10Result, error) {
	costs := Calibrated()
	// Native: measured.
	pp, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: steadyExchanges, Seed: seed})
	if err != nil {
		return nil, err
	}
	res := &E10Result{NativeMicros: stats.Mean(pp.Steady())}

	// KKT: run the real engine over the RPC transport to verify
	// functional parity and count RPCs.
	net := kkt.NewNetwork()
	ea, err := net.Attach(0)
	if err != nil {
		return nil, err
	}
	eb, err := net.Attach(1)
	if err != nil {
		return nil, err
	}
	ta := kkt.NewTransport(ea, 0)
	tb := kkt.NewTransport(eb, 0)
	bufA, err := commbuf.New(commbuf.Config{Node: 0, MessageSize: 128})
	if err != nil {
		return nil, err
	}
	bufB, err := commbuf.New(commbuf.Config{Node: 1, MessageSize: 128})
	if err != nil {
		return nil, err
	}
	engA, err := engine.New(bufA, ta, engine.Config{})
	if err != nil {
		return nil, err
	}
	engB, err := engine.New(bufB, tb, engine.Config{})
	if err != nil {
		return nil, err
	}
	appA := bufA.View(mem.ActorApp)
	appB := bufB.View(mem.ActorApp)
	sep, err := bufA.AllocEndpoint(commbuf.EndpointSend, 8)
	if err != nil {
		return nil, err
	}
	rep, err := bufB.AllocEndpoint(commbuf.EndpointRecv, 8)
	if err != nil {
		return nil, err
	}
	const msgs = 50
	delivered := 0
	rm, err := bufB.AllocMsg()
	if err != nil {
		return nil, err
	}
	sm, err := bufA.AllocMsg()
	if err != nil {
		return nil, err
	}
	for i := 0; i < msgs; i++ {
		if err := rm.StageRecv(appB); err != nil {
			return nil, err
		}
		if !rep.Queue().Release(appB, uint64(rm.ID())) {
			return nil, fmt.Errorf("E10: recv queue full")
		}
		copy(sm.Payload(), "kkt development binding")
		if err := sm.StageSend(appA, rep.Addr(), 23, 0); err != nil {
			return nil, err
		}
		if !sep.Queue().Release(appA, uint64(sm.ID())) {
			return nil, fmt.Errorf("E10: send queue full")
		}
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			engA.Poll()
			engB.Poll()
			if id, ok := rep.Queue().Acquire(appB); ok {
				got, err := bufB.MsgByID(id)
				if err != nil {
					return nil, err
				}
				if err := got.Reclaim(appB); err != nil {
					return nil, err
				}
				delivered++
				break
			}
		}
		if id, ok := sep.Queue().Acquire(appA); ok {
			m, err := bufA.MsgByID(id)
			if err != nil {
				return nil, err
			}
			if err := m.Reclaim(appA); err != nil {
				return nil, err
			}
			_ = id
		}
	}
	if delivered != msgs {
		return nil, fmt.Errorf("E10: delivered %d/%d over KKT", delivered, msgs)
	}
	res.KKTRPCs, _, _ = ea.Stats()

	// Model the KKT per-message time: the engine's library-side costs
	// stay, but the transfer is a synchronous kernel RPC.
	kktOneWay := costs.AppSend + costs.EngineSendPickup +
		kktTrap + costs.WireTime(128) + kktKernelWork +
		costs.WireTime(kktAckBytes) + kktTrap +
		costs.EngineRecvDeliver + costs.AppRecv
	res.KKTMicros = kktOneWay.Micros()

	res.Table = Table{
		ID:      "E10",
		Title:   "Engine bindings: native optimistic transport vs KKT (RPC per message)",
		Note:    "KKT is not a good match (RPC per message) but let all platform-independent code be debugged off-Paragon",
		Columns: []string{"binding", "latency(µs)", "RPCs per message", "functional parity"},
		Rows: [][]string{
			{"native messaging engine", fmt.Sprintf("%.1f", res.NativeMicros), "0", "-"},
			{"KKT development binding", fmt.Sprintf("%.1f (modeled)", res.KKTMicros), "1",
				fmt.Sprintf("%d/%d delivered, same library code", delivered, msgs)},
		},
	}
	return res, nil
}
