package faultinject_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flipc/internal/commbuf"
	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/faultinject"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/wire"
)

// The chaos soak: a three-node cluster on one fabric with every injector
// fault mode live at 2%, a mid-run partition, and deliberate
// comm-buffer corruption on every node, driven with the engines on
// their own goroutines (run it with -race). Sacrificial endpoints are
// poisoned, quarantined, and recovered via free/re-allocate while the
// main traffic keeps flowing. At the end the conservation law must
// hold exactly:
//
//	every frame an engine sent is delivered or appears in exactly
//	one loss category — injector drop, partition, receiver checksum
//	failure, no-posted-buffer, stale address, or quarantined
//	destination — with duplicates accounted on the other side.
//
// Any engine panic fails the test; so does a quarantine that never
// recovers, or a single unaccounted frame.
func TestChaosSoakConservation(t *testing.T) {
	fabric := interconnect.NewFabric(512)
	ports := make([]interconnect.Transport, soakNodes)
	for i := range ports {
		p, err := fabric.Attach(wire.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
	}
	chaosSoak(t, ports, func(i int) wireLedger {
		return wireLedger{delivered: ports[i].(interface{ Stats() interconnect.Stats }).Stats().Delivered}
	})
}

// TestChaosSoakConservationBatched asks the same soak of the production
// cork: three nettrans transports on 127.0.0.1 with BatchWrites, dialed
// as a full mesh under the same injectors. TrySend corks up to 8 frames
// per peer and each engine's end-of-pass FlushSends drains the corks, so
// deferred delivery through a cork must still be delivery. The law
// gains the transport's own loss terms: frames dropped at a full inbox
// (RxDrops) and frames lost in a cork with their connection (FlushLost).
func TestChaosSoakConservationBatched(t *testing.T) {
	trs := make([]*nettrans.Transport, soakNodes)
	regs := make([]*metrics.Registry, soakNodes)
	ports := make([]interconnect.Transport, soakNodes)
	for i := range trs {
		regs[i] = metrics.NewRegistry() // read for the inbox depth only
		tr, err := nettrans.ListenConfig(nettrans.Config{
			Node: wire.NodeID(i), Addr: "127.0.0.1:0", MessageSize: 64,
			BatchWrites: true, MaxBatchFrames: 8, Metrics: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[i], ports[i] = tr, tr
	}
	for i := range trs {
		for j := i + 1; j < soakNodes; j++ {
			if err := trs[i].Dial(wire.NodeID(j), trs[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	limit := time.Now().Add(5 * time.Second)
	for i := range trs {
		for j := range trs {
			for i != j && !trs[i].PeerUp(wire.NodeID(j)) {
				if time.Now().After(limit) {
					t.Fatalf("link %d->%d never came up", i, j)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	chaosSoak(t, ports, func(i int) wireLedger {
		st := trs[i].Stats()
		return wireLedger{
			delivered: st.Delivered,
			lost:      st.RxDrops + st.FlushLost,
			queued:    uint64(regs[i].Snapshot().Gauges["flipc_transport_inbox_depth"]),
		}
	})
	var st nettrans.Stats
	for _, tr := range trs {
		s := tr.Stats()
		st.RxDrops += s.RxDrops
		st.FlushLost += s.FlushLost
		st.PeerDowns += s.PeerDowns
		st.CtlBypass += s.CtlBypass
	}
	t.Logf("nettrans: rx drops=%d flush lost=%d peer downs=%d ctl bypass=%d",
		st.RxDrops, st.FlushLost, st.PeerDowns, st.CtlBypass)
}

// soakNodes is the chaos soak's cluster size.
const soakNodes = 3

// wireLedger is one transport's own side of the soak's books: frames it
// handed toward the engine, frames it lost itself, and frames handed
// over but still queued for the engine to poll.
type wireLedger struct{ delivered, lost, queued uint64 }

// chaosSoak runs the soak over ports, one attached transport per node;
// ledger reads port i's wireLedger.
func chaosSoak(t *testing.T, ports []interconnect.Transport, ledger func(i int) wireLedger) {
	const (
		nodes       = soakNodes
		msgsPerNode = 35000
		chaosBurst  = 50
		seed        = 20260806
		deadline    = 60 * time.Second
	)
	chaos := faultinject.Config{
		DropRate:    0.02,
		DupRate:     0.02,
		CorruptRate: 0.02,
		CorruptBits: 1,
		DelayRate:   0.02,
		DelayPolls:  4,
		ReorderRate: 0.02,
	}

	type node struct {
		d        *core.Domain
		inj      *faultinject.Injector
		sep      *core.Endpoint // main traffic source
		rep      *core.Endpoint // main inbox, kept stocked
		chaosRep *core.Endpoint // inbox whose queue gets scribbled mid-run
	}
	ns := make([]*node, nodes)
	for i := range ns {
		cfg := chaos
		cfg.Seed = seed + int64(i)
		inj, err := faultinject.Wrap(ports[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{
			Node:        wire.NodeID(i),
			MessageSize: 64,
			NumBuffers:  256,
			Engine: engine.Config{
				ValidityChecks: true,
				Checksum:       true,
				SendQuantum:    16,
				RecvQuantum:    16,
			},
		}, inj)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		n := &node{d: d, inj: inj}
		if n.sep, err = d.NewSendEndpoint(32); err != nil {
			t.Fatal(err)
		}
		if n.rep, err = d.NewRecvEndpoint(16); err != nil {
			t.Fatal(err)
		}
		if n.chaosRep, err = d.NewRecvEndpoint(8); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 12; b++ {
			m, err := d.AllocBuffer()
			if err != nil {
				t.Fatal(err)
			}
			ep := n.rep
			if b >= 8 {
				ep = n.chaosRep
			}
			if ep.Post(m) != nil {
				d.FreeBuffer(m)
			}
		}
		ns[i] = n
	}
	repAddr := make([]core.Addr, nodes)
	chaosAddr := make([]core.Addr, nodes)
	for i, n := range ns {
		repAddr[i] = n.rep.Addr()
		chaosAddr[i] = n.chaosRep.Addr()
		n.d.Start()
	}

	// Every node's application runs on its own goroutine: the comm
	// buffer's single-app-writer discipline holds per buffer, while the
	// engines race freely against them.
	var (
		wg        sync.WaitGroup
		scribbled [nodes]atomic.Bool
		failed    atomic.Bool
	)
	fatalf := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	slotOf := func(n *node, ep *core.Endpoint) int {
		slot, ok := n.d.Buffer().SlotForAddrIndex(int(ep.Addr().Index()))
		if !ok {
			fatalf("no slot for endpoint %v", ep.Addr())
			return -1
		}
		return slot
	}
	quarantinedSlot := func(n *node, slot int) bool {
		for _, q := range n.d.Engine().Quarantined() {
			if q.Slot == slot {
				return true
			}
		}
		return false
	}
	waitQuarantine := func(n *node, slot int, want bool) bool {
		limit := time.Now().Add(deadline)
		for quarantinedSlot(n, slot) != want {
			if failed.Load() || time.Now().After(limit) {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		return true
	}

	for i := range ns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := ns[i]
			corr := faultinject.NewCorruptor(n.d.Buffer(), seed+100+int64(i))
			reclaim := func() {
				for {
					m, ok := n.sep.Acquire()
					if !ok {
						return
					}
					n.d.FreeBuffer(m)
				}
			}
			drainInbox := func() {
				for {
					m, ok := n.rep.Receive()
					if !ok {
						return
					}
					if n.rep.Post(m) != nil {
						n.d.FreeBuffer(m)
					}
				}
			}
			sendTo := func(dst core.Addr, tag byte) bool {
				for attempt := 0; ; attempt++ {
					reclaim()
					drainInbox()
					m, err := n.d.AllocBuffer()
					if err != nil {
						time.Sleep(10 * time.Microsecond)
						continue
					}
					m.Payload()[0] = tag
					err = n.sep.Send(m, dst, 8)
					if err == nil {
						return true
					}
					n.d.FreeBuffer(m)
					if !errors.Is(err, core.ErrQueueFull) {
						fatalf("node %d: send: %v", i, err)
						return false
					}
					if failed.Load() || attempt > 1<<22 {
						fatalf("node %d: send queue never drained", i)
						return false
					}
					time.Sleep(10 * time.Microsecond)
				}
			}
			// Mix: the bulk to the two peers' main inboxes, a trickle to
			// the next peer's chaos inbox (scribbled mid-run on its side).
			peers := [2]int{(i + 1) % nodes, (i + 2) % nodes}
			for sent := 0; sent < msgsPerNode && !failed.Load(); sent++ {
				dst := repAddr[peers[sent%2]]
				if sent%10 == 9 {
					dst = chaosAddr[peers[0]]
				}
				if !sendTo(dst, byte(sent)) {
					return
				}
				switch sent {
				case msgsPerNode / 8:
					n.inj.Partition(wire.NodeID(peers[0]), true)
				case msgsPerNode/8 + 2000:
					n.inj.Heal()
				case msgsPerNode / 4:
					// Scribble our own chaos inbox's release pointer: peer
					// traffic aimed at it must quarantine the slot.
					corr.ScribbleRelease(chaosEP(n.d, n.chaosRep))
					scribbled[i].Store(true)
				case msgsPerNode / 2:
					// Sacrificial send endpoint: poison, watch the engine
					// quarantine it, recover by re-allocating the slot, and
					// prove the reborn endpoint sends.
					sac, err := n.d.NewSendEndpoint(4)
					if err != nil {
						fatalf("node %d: sac alloc: %v", i, err)
						return
					}
					slot := slotOf(n, sac)
					if !corr.WildBufID(chaosEP(n.d, sac)) {
						fatalf("node %d: wild release failed", i)
						return
					}
					if !waitQuarantine(n, slot, true) {
						fatalf("node %d: send-side quarantine never observed", i)
						return
					}
					if err := sac.Free(); err != nil {
						fatalf("node %d: sac free: %v", i, err)
						return
					}
					sac2, err := n.d.NewSendEndpoint(4)
					if err != nil {
						fatalf("node %d: sac realloc: %v", i, err)
						return
					}
					if got := slotOf(n, sac2); got != slot {
						fatalf("node %d: realloc got slot %d, want %d", i, got, slot)
						return
					}
					if !waitQuarantine(n, slot, false) {
						fatalf("node %d: quarantine never lifted after realloc", i)
						return
					}
					m, err := n.d.AllocBuffer()
					if err == nil {
						m.Payload()[0] = 0xEE
						if err := sac2.Send(m, repAddr[peers[1]], 8); err != nil {
							n.d.FreeBuffer(m)
						}
					}
				}
			}
			if failed.Load() {
				return
			}
			// Wait until every node has scribbled its chaos inbox, then
			// burst traffic at them: these arrivals are guaranteed to hit
			// poisoned queues, making the recv-side quarantine
			// deterministic regardless of scheduling.
			for k := 0; k < nodes; k++ {
				for !scribbled[k].Load() {
					if failed.Load() {
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
			}
			for b := 0; b < chaosBurst; b++ {
				for _, p := range peers {
					if !sendTo(chaosAddr[p], 0xCC) {
						return
					}
				}
			}
			// Recover our own chaos inbox: the burst above guarantees the
			// engine has (or will) put it in quarantine.
			slot := slotOf(n, n.chaosRep)
			if !waitQuarantine(n, slot, true) {
				fatalf("node %d: recv-side quarantine never observed", i)
				return
			}
			if err := n.chaosRep.Free(); err != nil {
				fatalf("node %d: chaos inbox free: %v", i, err)
				return
			}
			reborn, err := n.d.NewRecvEndpoint(8)
			if err != nil {
				fatalf("node %d: chaos inbox realloc: %v", i, err)
				return
			}
			_ = reborn
			if !waitQuarantine(n, slot, false) {
				fatalf("node %d: recv quarantine never lifted", i)
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	// Quiesce: engines are still running; wait until the injectors hold
	// nothing, the transports have handed over or lost everything
	// forwarded into them and the engines have polled it, and the flow
	// counters stop moving (outstanding sends drained).
	type flow struct{ fwd, del, lost, queued, sent uint64 }
	sample := func() flow {
		var f flow
		for i, n := range ns {
			st := n.inj.Stats()
			f.fwd += st.Forwarded
			f.sent += st.Sent
			w := ledger(i)
			f.del += w.delivered
			f.lost += w.lost
			f.queued += w.queued
		}
		return f
	}
	limit := time.Now().Add(deadline)
	var prev flow
	for {
		if time.Now().After(limit) {
			t.Fatal("cluster never quiesced")
		}
		held := 0
		for _, n := range ns {
			held += n.inj.Held()
		}
		cur := sample()
		if held == 0 && cur.queued == 0 && cur.fwd == cur.del+cur.lost && cur == prev {
			break
		}
		prev = cur
		time.Sleep(2 * time.Millisecond)
	}
	for _, n := range ns {
		n.d.Close() // joins the engine goroutine: stats reads below are safe
	}

	// Conservation, per injector: accepted == swallowed + forwarded
	// primaries.
	var inj faultinject.Stats
	for i, n := range ns {
		st := n.inj.Stats()
		if st.Sent != st.Dropped+st.Partitioned+(st.Forwarded-st.Duplicated) {
			t.Errorf("node %d: injector books don't balance: %+v", i, st)
		}
		inj.Sent += st.Sent
		inj.Forwarded += st.Forwarded
		inj.Dropped += st.Dropped
		inj.Partitioned += st.Partitioned
		inj.Duplicated += st.Duplicated
		inj.Corrupted += st.Corrupted
		inj.Delayed += st.Delayed
		inj.Reordered += st.Reordered
	}
	var eng engine.Stats
	var faults [engine.NumFaultKinds]uint64
	for i, n := range ns {
		st := n.d.Engine().Stats()
		if got := st.Delivered + st.RecvDrops + st.AddrDrops + st.BadFrames + st.ChecksumDrops + st.QuarantineDrops; got != st.Received {
			t.Errorf("node %d: received %d != delivered %d + drops %d/%d/%d/%d/%d",
				i, st.Received, st.Delivered, st.RecvDrops, st.AddrDrops,
				st.BadFrames, st.ChecksumDrops, st.QuarantineDrops)
		}
		eng.Sent += st.Sent
		eng.Received += st.Received
		eng.Delivered += st.Delivered
		eng.RecvDrops += st.RecvDrops
		eng.AddrDrops += st.AddrDrops
		eng.BadFrames += st.BadFrames
		eng.ChecksumDrops += st.ChecksumDrops
		eng.QuarantineDrops += st.QuarantineDrops
		eng.Quarantines += st.Quarantines
		eng.QuarantineRecoveries += st.QuarantineRecoveries
		for k, c := range st.EndpointFaults {
			faults[k] += c
		}
	}
	var wireLost uint64
	for i := range ns {
		wireLost += ledger(i).lost
	}
	// Every frame the engines sent entered an injector; every frame the
	// injectors released was received by an engine or lost, counted, in
	// a transport.
	if eng.Sent != inj.Sent {
		t.Errorf("engines sent %d, injectors accepted %d", eng.Sent, inj.Sent)
	}
	if eng.Received+wireLost != inj.Forwarded {
		t.Errorf("injectors forwarded %d, engines received %d, transports lost %d", inj.Forwarded, eng.Received, wireLost)
	}
	// The global conservation law: sent - swallowed + duplicated lands
	// in exactly one receive-side or transport loss category.
	lost := eng.RecvDrops + eng.AddrDrops + eng.BadFrames + eng.ChecksumDrops + eng.QuarantineDrops
	if eng.Sent-inj.Dropped-inj.Partitioned+inj.Duplicated != eng.Delivered+lost+wireLost {
		t.Errorf("conservation violated: sent=%d dropped=%d partitioned=%d duplicated=%d delivered=%d lost=%d wire lost=%d",
			eng.Sent, inj.Dropped, inj.Partitioned, inj.Duplicated, eng.Delivered, lost, wireLost)
	}
	if eng.Sent < 100000 {
		t.Errorf("soak too small: %d messages sent, want >= 100000", eng.Sent)
	}
	// Every chaos mode fired, and every one left its audit trail.
	for name, v := range map[string]uint64{
		"Dropped": inj.Dropped, "Partitioned": inj.Partitioned,
		"Duplicated": inj.Duplicated, "Corrupted": inj.Corrupted,
		"Delayed": inj.Delayed, "Reordered": inj.Reordered,
		"ChecksumDrops":   eng.ChecksumDrops,
		"QuarantineDrops": eng.QuarantineDrops,
		"Delivered":       eng.Delivered,
	} {
		if v == 0 {
			t.Errorf("%s never happened — chaos mode not exercised", name)
		}
	}
	// Each node quarantined its sacrificial send endpoint and its
	// scribbled inbox, and recovered both via slot re-allocation.
	if eng.Quarantines < 2*nodes {
		t.Errorf("quarantine episodes = %d, want >= %d", eng.Quarantines, 2*nodes)
	}
	if eng.QuarantineRecoveries < 2*nodes {
		t.Errorf("quarantine recoveries = %d, want >= %d", eng.QuarantineRecoveries, 2*nodes)
	}
	if faults[engine.FaultBadBufID] < nodes {
		t.Errorf("bad-buffer-id faults = %d, want >= %d", faults[engine.FaultBadBufID], nodes)
	}
	if faults[engine.FaultQueueInvariant] < nodes {
		t.Errorf("queue-invariant faults = %d, want >= %d", faults[engine.FaultQueueInvariant], nodes)
	}
	t.Logf("chaos soak: sent=%d delivered=%d | injector drop=%d partition=%d dup=%d corrupt=%d delay=%d reorder=%d | recv drops=%d addr=%d bad=%d cksum=%d quarantine=%d | wire lost=%d | episodes=%d recoveries=%d",
		eng.Sent, eng.Delivered, inj.Dropped, inj.Partitioned, inj.Duplicated,
		inj.Corrupted, inj.Delayed, inj.Reordered,
		eng.RecvDrops, eng.AddrDrops, eng.BadFrames, eng.ChecksumDrops,
		eng.QuarantineDrops, wireLost, eng.Quarantines, eng.QuarantineRecoveries)
}

// chaosEP digs the commbuf endpoint out of a core endpoint via the
// buffer's slot table, so the Corruptor can scribble on it through the
// application view — exactly what a buggy application could do.
func chaosEP(d *core.Domain, ep *core.Endpoint) *commbuf.Endpoint {
	slot, ok := d.Buffer().SlotForAddrIndex(int(ep.Addr().Index()))
	if !ok {
		panic("endpoint has no slot")
	}
	return d.Buffer().EndpointByIndex(slot)
}
