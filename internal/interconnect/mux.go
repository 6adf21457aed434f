package interconnect

import (
	"fmt"
	"sync"

	"flipc/internal/wire"
)

// Mux shares one physical transport among several communication
// buffers on the same node — the paper's future-work "support for
// multiple communication buffers per node ... to support multiple
// applications that do not trust each other". Each buffer takes a
// disjoint endpoint-index range (commbuf.Config.EndpointBase) and its
// engine gets a sub-transport that only ever sees frames addressed to
// that range; the applications share nothing (each has its own arena)
// and cannot observe each other's traffic.
//
// Outbound frames pass straight through to the underlying transport,
// and so do FlushSends and PeerUp (BatchFlusher, PeerStatusReporter).
// Inbound frames are demultiplexed by the destination address's
// endpoint-index field; frames for an unclaimed range are dropped and
// counted (there is no engine to deliver them to).
type Mux struct {
	tr Transport

	mu        sync.Mutex
	ports     []*muxPort
	unclaimed uint64
}

// NewMux wraps a transport for sharing.
func NewMux(tr Transport) *Mux {
	return &Mux{tr: tr}
}

type muxPort struct {
	mux    *Mux
	lo, hi int // endpoint-index range [lo, hi)
	inbox  [][]byte
}

// Attach claims the endpoint-index range [lo, hi) and returns the
// sub-transport for that range's communication buffer. Ranges must be
// disjoint.
func (m *Mux) Attach(lo, hi int) (Transport, error) {
	if lo < 0 || hi <= lo || hi > wire.MaxEndpoints {
		return nil, fmt.Errorf("interconnect: mux range [%d,%d) invalid", lo, hi)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.ports {
		if lo < p.hi && p.lo < hi {
			return nil, fmt.Errorf("interconnect: mux range [%d,%d) overlaps [%d,%d)", lo, hi, p.lo, p.hi)
		}
	}
	p := &muxPort{mux: m, lo: lo, hi: hi}
	m.ports = append(m.ports, p)
	return p, nil
}

// Unclaimed returns the number of inbound frames dropped because no
// attached range claimed their destination.
func (m *Mux) Unclaimed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unclaimed
}

// pump drains the shared transport into per-port inboxes. Called under
// m.mu from any port's Poll, so engines on different goroutines share
// the demux safely.
func (m *Mux) pump() {
	for {
		frame, ok := m.tr.Poll()
		if !ok {
			return
		}
		pkt, err := wire.Decode(frame)
		if err != nil {
			m.unclaimed++
			continue
		}
		idx := int(pkt.Dst.Index())
		claimed := false
		for _, p := range m.ports {
			if idx >= p.lo && idx < p.hi {
				p.inbox = append(p.inbox, frame)
				claimed = true
				break
			}
		}
		if !claimed {
			m.unclaimed++
		}
	}
}

// TrySend implements Transport (pass-through).
func (p *muxPort) TrySend(dst wire.NodeID, frame []byte) bool {
	// The underlying transport may not be concurrency-safe (mesh);
	// serialize sends through the mux lock alongside the demux.
	p.mux.mu.Lock()
	defer p.mux.mu.Unlock()
	return p.mux.tr.TrySend(dst, frame)
}

// FlushSends implements BatchFlusher by forwarding to the shared
// transport, so a corking transport's runs leave on this engine's pass
// as they would if the engine owned it. A no-op over one that never
// corks.
func (p *muxPort) FlushSends() {
	if f, ok := p.mux.tr.(BatchFlusher); ok {
		p.mux.mu.Lock()
		defer p.mux.mu.Unlock()
		f.FlushSends()
	}
}

// PeerUp implements PeerStatusReporter by forwarding to the shared
// transport, so a dead peer counts as PeerDown, not WireBusy. A
// transport that tracks no peers reports every peer up.
func (p *muxPort) PeerUp(dst wire.NodeID) bool {
	if r, ok := p.mux.tr.(PeerStatusReporter); ok {
		p.mux.mu.Lock()
		defer p.mux.mu.Unlock()
		return r.PeerUp(dst)
	}
	return true
}

// Poll implements Transport: drain the shared transport, then pop this
// range's inbox.
func (p *muxPort) Poll() ([]byte, bool) {
	p.mux.mu.Lock()
	defer p.mux.mu.Unlock()
	p.mux.pump()
	if len(p.inbox) == 0 {
		return nil, false
	}
	f := p.inbox[0]
	p.inbox = p.inbox[1:]
	return f, true
}

// LocalNode implements Transport.
func (p *muxPort) LocalNode() wire.NodeID { return p.mux.tr.LocalNode() }
