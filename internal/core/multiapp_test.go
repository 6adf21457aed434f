package core

import (
	"testing"

	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/sim"
	"flipc/internal/wire"
)

// Two mutually untrusting applications share node 0, each with its own
// communication buffer (separate arenas: nothing shared), disjoint
// endpoint ranges, and one physical transport demultiplexed by
// interconnect.Mux — the paper's future-work multi-buffer extension.
// A remote peer talks to both; each application sees only its own
// traffic, and the AllowedNodes protection applies per buffer.
func TestMultipleCommBuffersPerNode(t *testing.T) {
	fabric := interconnect.NewFabric(256)
	shared, err := fabric.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	mux := interconnect.NewMux(shared)
	trustedTr, err := mux.Attach(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	restrictedTr, err := mux.Attach(8, 16)
	if err != nil {
		t.Fatal(err)
	}

	trusted, err := NewDomain(Config{
		Node: 0, MessageSize: 64, NumBuffers: 16, MaxEndpoints: 8,
	}, trustedTr)
	if err != nil {
		t.Fatal(err)
	}
	defer trusted.Close()
	// The restricted application may only talk to node 1.
	restricted, err := NewDomain(Config{
		Node: 0, MessageSize: 64, NumBuffers: 16, MaxEndpoints: 8, EndpointBase: 8,
		AllowedNodes: []wire.NodeID{1},
		Engine:       engine.Config{ValidityChecks: true},
	}, restrictedTr)
	if err != nil {
		t.Fatal(err)
	}
	defer restricted.Close()

	peerTr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewDomain(Config{Node: 1, MessageSize: 64, NumBuffers: 32}, peerTr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	outsiderTr, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	outsider, err := NewDomain(Config{Node: 2, MessageSize: 64, NumBuffers: 16}, outsiderTr)
	if err != nil {
		t.Fatal(err)
	}
	defer outsider.Close()

	all := []*Domain{trusted, restricted, peer, outsider}

	// Both co-resident applications' receive endpoints must have
	// distinct address indices.
	repT, err := trusted.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	repR, err := restricted.NewRecvEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if repT.Addr().Index() == repR.Addr().Index() {
		t.Fatalf("endpoint ranges collide: both at index %d", repT.Addr().Index())
	}
	mT, _ := trusted.AllocBuffer()
	repT.Post(mT)
	mR, _ := restricted.AllocBuffer()
	repR.Post(mR)

	// The peer sends one message to each application on node 0.
	sepP, _ := peer.NewSendEndpoint(8)
	for _, target := range []struct {
		dst     Addr
		payload string
	}{
		{repT.Addr(), "for trusted"},
		{repR.Addr(), "for restricted"},
	} {
		m, _ := peer.AllocBuffer()
		n := copy(m.Payload(), target.payload)
		if err := sepP.Send(m, target.dst, n); err != nil {
			t.Fatal(err)
		}
	}
	pump(all...)

	gotT, ok := repT.Receive()
	if !ok || string(gotT.Payload()[:gotT.Len()]) != "for trusted" {
		t.Fatalf("trusted app received %v", ok)
	}
	gotR, ok := repR.Receive()
	if !ok || string(gotR.Payload()[:gotR.Len()]) != "for restricted" {
		t.Fatalf("restricted app received %v", ok)
	}
	// No cross-delivery: both inboxes are now empty.
	if _, ok := repT.Receive(); ok {
		t.Fatal("trusted app saw foreign traffic")
	}
	if _, ok := repR.Receive(); ok {
		t.Fatal("restricted app saw foreign traffic")
	}

	// Per-buffer protection: the restricted application cannot reach
	// node 2, while the trusted one can.
	repO, _ := outsider.NewRecvEndpoint(4)
	mO, _ := outsider.AllocBuffer()
	repO.Post(mO)

	sepR, _ := restricted.NewSendEndpoint(4)
	forbidden, _ := restricted.AllocBuffer()
	if err := sepR.Send(forbidden, repO.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	pump(all...)
	if !forbidden.Dropped() {
		t.Fatal("restricted app reached a forbidden node")
	}
	if _, ok := repO.Receive(); ok {
		t.Fatal("forbidden message delivered")
	}

	sepT, _ := trusted.NewSendEndpoint(4)
	allowed, _ := trusted.AllocBuffer()
	if err := sepT.Send(allowed, repO.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	pump(all...)
	if _, ok := repO.Receive(); !ok {
		t.Fatal("trusted app's message lost")
	}
}

// An engine on a mux port over a corking transport must reach the
// shared transport's FlushSends: a frame corked below the mux is
// otherwise never sent. The mesh holds a run until a flush (or until
// it fills 8 frames), so one send shows the difference.
func TestMuxPortFlushesCorkedFrames(t *testing.T) {
	clock := sim.NewClock()
	cfg := interconnect.DefaultMeshConfig()
	cfg.BatchFrames = 8
	mesh, err := interconnect.NewMesh(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := mesh.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	muxTr, err := interconnect.NewMux(shared).Attach(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	peerTr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewDomain(Config{Node: 0, MessageSize: 64, NumBuffers: 16, MaxEndpoints: 32}, muxTr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewDomain(Config{Node: 1, MessageSize: 64, NumBuffers: 16}, peerTr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rep, _ := b.NewRecvEndpoint(4)
	rm, _ := b.AllocBuffer()
	rep.Post(rm)
	sep, _ := a.NewSendEndpoint(4)
	sm, _ := a.AllocBuffer()
	if err := sep.Send(sm, rep.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a.Poll()
		b.Poll()
		clock.RunFor(10 * sim.Microsecond)
	}
	if _, ok := rep.Receive(); !ok {
		t.Fatal("frame corked below the mux was never sent")
	}
}
