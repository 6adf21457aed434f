package interconnect

import (
	"testing"

	"flipc/internal/sim"
	"flipc/internal/wire"
)

// batchMeshCfg is a 2x1 mesh with batching: route setup dominates
// serialization, so the one-setup-per-run aggregation win is visible
// in the arrival times.
func batchMeshCfg(bf int, dl sim.Time) MeshConfig {
	return MeshConfig{
		Width: 2, Height: 1,
		NSPerByte:     6.25, // 64B frame = 400ns serial
		HopLatency:    100 * sim.Nanosecond,
		RouteSetup:    1200 * sim.Nanosecond,
		BatchFrames:   bf,
		FlushDeadline: dl,
	}
}

// TestMeshBatchOneRouteSetupPerRun corks two frames and flushes: the
// run pays RouteSetup once, so the second frame arrives one
// serialization after the first — where frame-at-a-time sends would
// charge it a second setup.
func TestMeshBatchOneRouteSetupPerRun(t *testing.T) {
	clock, m := newMesh(t, batchMeshCfg(4, 0))
	a, _ := m.Attach(0)
	b, _ := m.Attach(1)

	f := make([]byte, 64)
	if !a.TrySend(1, f) || !a.TrySend(1, f) {
		t.Fatal("TrySend refused")
	}
	// Corked: nothing is even scheduled until the flush.
	clock.RunUntil(10_000)
	if _, ok := b.Poll(); ok {
		t.Fatal("frame escaped the cork without a flush")
	}
	a.(BatchFlusher).FlushSends()
	// Flush at T=10000: setup+hop once (1300), then 400ns per frame.
	clock.RunUntil(10_000 + 1300 + 400 - 1)
	if _, ok := b.Poll(); ok {
		t.Fatal("first frame arrived early")
	}
	clock.RunUntil(10_000 + 1300 + 400)
	if _, ok := b.Poll(); !ok {
		t.Fatal("first frame missing at its wire time")
	}
	// Second frame: +400ns serialization only — no second RouteSetup.
	clock.RunUntil(10_000 + 1300 + 800)
	if _, ok := b.Poll(); !ok {
		t.Fatal("second frame missing: run should pay RouteSetup once")
	}
}

// TestMeshBatchExpeditedBypass shows a control-class frame flushing
// the corked run ahead of itself and transmitting immediately, while
// a full run flushes inline without FlushSends.
func TestMeshBatchExpeditedBypass(t *testing.T) {
	clock, m := newMesh(t, batchMeshCfg(4, 0))
	a, _ := m.Attach(0)
	b, _ := m.Attach(1)

	bulk := make([]byte, 64)
	bulk[0] = 1
	if !a.TrySend(1, bulk) {
		t.Fatal("bulk TrySend refused")
	}
	ctl := make([]byte, 64)
	ctl[0] = 2
	ctl[6] = wire.FlagCtl
	if !a.TrySend(1, ctl) {
		t.Fatal("ctl TrySend refused")
	}
	// Both transmitted at T=0 without any flush call; bulk first
	// (per-pair order), ctl right behind on the serializing link.
	clock.RunUntil(1300 + 800)
	f1, ok1 := b.Poll()
	f2, ok2 := b.Poll()
	if !ok1 || !ok2 || f1[0] != 1 || f2[0] != 2 {
		t.Fatalf("expedited bypass: got (%v,%v), want bulk then ctl", ok1, ok2)
	}

	// Filling the run to BatchFrames flushes inline.
	for i := 0; i < 4; i++ {
		if !a.TrySend(1, bulk) {
			t.Fatalf("TrySend %d refused", i)
		}
	}
	clock.RunUntil(clock.Now() + 1300 + 4*400)
	for i := 0; i < 4; i++ {
		if _, ok := b.Poll(); !ok {
			t.Fatalf("inline-flushed frame %d missing", i)
		}
	}
}

// TestMeshBatchFlushDeadline holds a young run across FlushSends and
// releases it once the oldest corked frame has aged past the deadline.
func TestMeshBatchFlushDeadline(t *testing.T) {
	clock, m := newMesh(t, batchMeshCfg(8, 5000*sim.Nanosecond))
	a, _ := m.Attach(0)
	b, _ := m.Attach(1)

	if !a.TrySend(1, make([]byte, 64)) {
		t.Fatal("TrySend refused")
	}
	f := a.(BatchFlusher)
	f.FlushSends() // age 0 < 5000: held
	clock.RunUntil(4999)
	f.FlushSends() // still young
	clock.RunUntil(20_000)
	if _, ok := b.Poll(); ok {
		t.Fatal("held frame leaked before its deadline flush")
	}
	f.FlushSends() // age 20000 >= 5000: released
	clock.RunUntil(20_000 + 1300 + 400)
	if _, ok := b.Poll(); !ok {
		t.Fatal("frame not delivered after deadline flush")
	}
}
