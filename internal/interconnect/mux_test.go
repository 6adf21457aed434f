package interconnect

import (
	"sync"
	"testing"

	"flipc/internal/wire"
)

func encodeTo(t *testing.T, idx uint16, tag byte) []byte {
	t.Helper()
	dst, err := wire.MakeAddr(0, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	p := &wire.Packet{Dst: dst, Size: 1, Payload: []byte{tag}}
	if err := wire.Encode(p, frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestMuxAttachValidation(t *testing.T) {
	fabric := NewFabric(16)
	tr, _ := fabric.Attach(0)
	m := NewMux(tr)
	if _, err := m.Attach(-1, 4); err == nil {
		t.Fatal("negative range accepted")
	}
	if _, err := m.Attach(4, 4); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := m.Attach(0, wire.MaxEndpoints+1); err == nil {
		t.Fatal("oversized range accepted")
	}
	if _, err := m.Attach(0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(4, 12); err == nil {
		t.Fatal("overlapping range accepted")
	}
	if _, err := m.Attach(8, 16); err != nil {
		t.Fatal(err)
	}
}

func TestMuxDemultiplexesByRange(t *testing.T) {
	fabric := NewFabric(64)
	tr, _ := fabric.Attach(0)
	injector, _ := fabric.Attach(1)
	m := NewMux(tr)
	lowT, _ := m.Attach(0, 8)
	highT, _ := m.Attach(8, 16)

	injector.TrySend(0, encodeTo(t, 2, 'L'))
	injector.TrySend(0, encodeTo(t, 9, 'H'))
	injector.TrySend(0, encodeTo(t, 99, 'X')) // unclaimed

	// High polls first but must only see its own frame.
	f, ok := highT.Poll()
	if !ok {
		t.Fatal("high range got nothing")
	}
	pkt, _ := wire.Decode(f)
	if pkt.Payload[0] != 'H' {
		t.Fatalf("high range saw %q", pkt.Payload)
	}
	if _, ok := highT.Poll(); ok {
		t.Fatal("high range saw a second frame")
	}
	f, ok = lowT.Poll()
	if !ok {
		t.Fatal("low range got nothing")
	}
	pkt, _ = wire.Decode(f)
	if pkt.Payload[0] != 'L' {
		t.Fatalf("low range saw %q", pkt.Payload)
	}
	if m.Unclaimed() != 1 {
		t.Fatalf("unclaimed = %d", m.Unclaimed())
	}
	if lowT.LocalNode() != 0 {
		t.Fatal("LocalNode wrong")
	}
}

func TestMuxSendPassThrough(t *testing.T) {
	fabric := NewFabric(64)
	tr, _ := fabric.Attach(0)
	sink, _ := fabric.Attach(1)
	m := NewMux(tr)
	sub, _ := m.Attach(0, 8)
	if !sub.TrySend(1, encodeTo(t, 3, 'S')) {
		t.Fatal("send failed")
	}
	f, ok := sink.Poll()
	if !ok {
		t.Fatal("frame not forwarded")
	}
	pkt, _ := wire.Decode(f)
	if pkt.Payload[0] != 'S' {
		t.Fatal("payload corrupted")
	}
}

// peerStub is a shared transport that tracks peers and corks: node
// down is unreachable, and flushes are counted.
type peerStub struct {
	Transport
	down    wire.NodeID
	flushes int
}

func (s *peerStub) PeerUp(dst wire.NodeID) bool { return dst != s.down }
func (s *peerStub) FlushSends()                 { s.flushes++ }

// A mux port forwards the shared transport's peer status and flush
// capabilities, so its engine counts a dead peer as PeerDown and drains
// the transport's cork; over a transport without them it reports every
// peer up. Engines on two ports flush concurrently: the mux lock
// serializes them (the stub's counter is unsynchronized, so -race
// checks that).
func TestMuxForwardsCapabilities(t *testing.T) {
	fabric := NewFabric(16)
	tr, _ := fabric.Attach(0)
	stub := &peerStub{Transport: tr, down: 2}
	m := NewMux(stub)
	sub, _ := m.Attach(0, 8)
	other, _ := m.Attach(8, 16)
	if !sub.(PeerStatusReporter).PeerUp(1) || sub.(PeerStatusReporter).PeerUp(2) {
		t.Fatal("PeerUp not forwarded to the shared transport")
	}
	const flushes = 1000
	var wg sync.WaitGroup
	for _, p := range []Transport{sub, other} {
		wg.Add(1)
		go func(p Transport) {
			defer wg.Done()
			for i := 0; i < flushes; i++ {
				p.(BatchFlusher).FlushSends()
			}
		}(p)
	}
	wg.Wait()
	if stub.flushes != 2*flushes {
		t.Fatalf("FlushSends reached the shared transport %d times, want %d", stub.flushes, 2*flushes)
	}

	plain, _ := fabric.Attach(1)
	sub, _ = NewMux(plain).Attach(0, 8)
	if !sub.(PeerStatusReporter).PeerUp(2) {
		t.Fatal("a transport that tracks no peers must report them up")
	}
	sub.(BatchFlusher).FlushSends() // no-op over a transport that never corks
}

func TestMuxBadFrameCountedUnclaimed(t *testing.T) {
	fabric := NewFabric(64)
	tr, _ := fabric.Attach(0)
	injector, _ := fabric.Attach(1)
	m := NewMux(tr)
	sub, _ := m.Attach(0, 8)
	injector.TrySend(0, make([]byte, 64)) // nil destination: undecodable
	if _, ok := sub.Poll(); ok {
		t.Fatal("bad frame delivered")
	}
	if m.Unclaimed() != 1 {
		t.Fatalf("unclaimed = %d", m.Unclaimed())
	}
}
