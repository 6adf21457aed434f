package flowctl

import (
	"testing"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/wire"
)

func newPair(t *testing.T) (*core.Domain, *core.Domain) {
	t.Helper()
	fabric := interconnect.NewFabric(256)
	mk := func(node wire.NodeID) *core.Domain {
		tr, err := fabric.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: 64, NumBuffers: 64}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	return mk(0), mk(1)
}

func pump(doms ...*core.Domain) {
	for pass := 0; pass < 200; pass++ {
		work := false
		for _, d := range doms {
			if d.Poll() {
				work = true
			}
		}
		if !work {
			return
		}
	}
}

func TestWithoutFlowControlDrops(t *testing.T) {
	// Control case for E9: a raw sender overruns a small receive window.
	a, b := newPair(t)
	sep, _ := a.NewSendEndpoint(16)
	rep, _ := b.NewRecvEndpoint(4)
	m, _ := b.AllocBuffer()
	rep.Post(m) // one buffer only
	for i := 0; i < 8; i++ {
		sm, _ := a.AllocBuffer()
		if err := sep.Send(sm, rep.Addr(), 1); err != nil {
			t.Fatal(err)
		}
	}
	pump(a, b)
	if rep.Drops() != 7 {
		t.Fatalf("drops = %d, want 7", rep.Drops())
	}
}

func TestStaticSizing(t *testing.T) {
	if got := RPCBuffers(10, 2); got != 20 {
		t.Fatalf("RPCBuffers = %d", got)
	}
	if got := RPCBuffers(-1, 2); got != 0 {
		t.Fatalf("RPCBuffers negative = %d", got)
	}
	if got := PeriodicBuffers(5, 3); got != 15 {
		t.Fatalf("PeriodicBuffers = %d", got)
	}
	if got := PeriodicBuffers(5, 0); got != 0 {
		t.Fatalf("PeriodicBuffers bad period = %d", got)
	}
}
