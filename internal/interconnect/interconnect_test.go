package interconnect

import (
	"runtime"
	"sync"
	"testing"

	"flipc/internal/sim"
	"flipc/internal/wire"
)

func newMesh(t *testing.T, cfg MeshConfig) (*sim.Clock, *Mesh) {
	t.Helper()
	clock := sim.NewClock()
	m, err := NewMesh(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clock, m
}

func TestMeshValidation(t *testing.T) {
	clock := sim.NewClock()
	if _, err := NewMesh(clock, MeshConfig{Width: 0, Height: 4}); err == nil {
		t.Fatal("0-width mesh accepted")
	}
	if _, err := NewMesh(clock, MeshConfig{Width: 2, Height: 2, NSPerByte: -1}); err == nil {
		t.Fatal("negative timing accepted")
	}
}

func TestMeshAttach(t *testing.T) {
	_, m := newMesh(t, DefaultMeshConfig())
	p, err := m.Attach(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.LocalNode() != 3 {
		t.Fatalf("LocalNode = %d", p.LocalNode())
	}
	if _, err := m.Attach(3); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if _, err := m.Attach(16); err == nil {
		t.Fatal("out-of-mesh node accepted")
	}
}

func TestMeshHops(t *testing.T) {
	_, m := newMesh(t, MeshConfig{Width: 4, Height: 4})
	for _, tc := range []struct {
		a, b wire.NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {5, 10, 2},
	} {
		if got := m.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMeshWireTime(t *testing.T) {
	_, m := newMesh(t, MeshConfig{Width: 2, Height: 1, NSPerByte: 6.25, HopLatency: 100, RouteSetup: 1200})
	// 64 bytes, 1 hop: 1200 + 100 + 400 = 1700ns.
	if got := m.WireTime(0, 1, 64); got != 1700 {
		t.Fatalf("WireTime = %v, want 1700ns", got)
	}
}

func TestMeshDelivery(t *testing.T) {
	clock, m := newMesh(t, MeshConfig{Width: 2, Height: 1, NSPerByte: 6.25, HopLatency: 100, RouteSetup: 1200})
	a, _ := m.Attach(0)
	b, _ := m.Attach(1)
	frame := make([]byte, 64)
	frame[0] = 0x7F
	if !a.TrySend(1, frame) {
		t.Fatal("TrySend failed")
	}
	frame[0] = 0 // mutate source: transport must have copied
	if _, ok := b.Poll(); ok {
		t.Fatal("frame arrived before wire time")
	}
	clock.RunUntil(1699)
	if _, ok := b.Poll(); ok {
		t.Fatal("frame arrived early")
	}
	clock.RunUntil(1700)
	got, ok := b.Poll()
	if !ok {
		t.Fatal("frame not delivered at wire time")
	}
	if got[0] != 0x7F {
		t.Fatal("transport did not copy the frame")
	}
	if _, ok := b.Poll(); ok {
		t.Fatal("duplicate delivery")
	}
}

func TestMeshOrderPreserved(t *testing.T) {
	clock, m := newMesh(t, DefaultMeshConfig())
	a, _ := m.Attach(0)
	b, _ := m.Attach(5)
	for i := 0; i < 10; i++ {
		f := make([]byte, 64)
		f[0] = byte(i)
		if !a.TrySend(5, f) {
			t.Fatal("TrySend failed")
		}
	}
	clock.Run()
	for i := 0; i < 10; i++ {
		f, ok := b.Poll()
		if !ok || f[0] != byte(i) {
			t.Fatalf("frame %d: got %v,%v", i, f, ok)
		}
	}
}

// Back-to-back sends serialize on the injection link, so the k-th
// frame arrives roughly k*serialization later — this is what caps
// throughput at 1/NSPerByte.
func TestMeshLinkSerialization(t *testing.T) {
	clock, m := newMesh(t, MeshConfig{Width: 2, Height: 1, NSPerByte: 10, HopLatency: 0, RouteSetup: 0})
	a, _ := m.Attach(0)
	b, _ := m.Attach(1)
	const frames = 5
	for i := 0; i < frames; i++ {
		if !a.TrySend(1, make([]byte, 100)) { // 1000ns serialization each
			t.Fatal("TrySend failed")
		}
	}
	var arrivals []sim.Time
	for len(arrivals) < frames {
		if !clock.Step() {
			t.Fatal("events exhausted")
		}
		for {
			if _, ok := b.Poll(); !ok {
				break
			}
			arrivals = append(arrivals, clock.Now())
		}
	}
	for i := 1; i < frames; i++ {
		if d := arrivals[i] - arrivals[i-1]; d != 1000 {
			t.Fatalf("inter-arrival %d = %v, want 1000ns (link-limited)", i, d)
		}
	}
}

func TestMeshPortDepth(t *testing.T) {
	clock, m := newMesh(t, MeshConfig{Width: 2, Height: 1, PortDepth: 2})
	a, _ := m.Attach(0)
	bT, _ := m.Attach(1)
	b := bT.(*meshPort)
	for i := 0; i < 2; i++ {
		if !a.TrySend(1, make([]byte, 64)) {
			t.Fatal("send failed")
		}
	}
	clock.Run()
	if a.TrySend(1, make([]byte, 64)) {
		t.Fatal("send to full port accepted")
	}
	ap := a.(*meshPort)
	if ap.Stats().SendBusy != 1 {
		t.Fatalf("SendBusy = %d", ap.Stats().SendBusy)
	}
	if _, ok := b.Poll(); !ok {
		t.Fatal("poll failed")
	}
	if !a.TrySend(1, make([]byte, 64)) {
		t.Fatal("send after drain failed")
	}
}

func TestMeshSendToUnattachedNode(t *testing.T) {
	_, m := newMesh(t, DefaultMeshConfig())
	a, _ := m.Attach(0)
	if a.TrySend(9, make([]byte, 64)) {
		t.Fatal("send to unattached node accepted")
	}
}

func TestMeshStats(t *testing.T) {
	clock, m := newMesh(t, DefaultMeshConfig())
	aT, _ := m.Attach(0)
	bT, _ := m.Attach(1)
	a := aT.(*meshPort)
	b := bT.(*meshPort)
	a.TrySend(1, make([]byte, 64))
	clock.Run()
	b.Poll()
	if a.Stats().Sent != 1 || b.Stats().Delivered != 1 {
		t.Fatalf("stats: %+v / %+v", a.Stats(), b.Stats())
	}
}

func TestFabricBasic(t *testing.T) {
	f := NewFabric(0)
	a, err := f.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	frame := make([]byte, 64)
	frame[5] = 9
	if !a.TrySend(1, frame) {
		t.Fatal("TrySend failed")
	}
	frame[5] = 0
	got, ok := b.Poll()
	if !ok || got[5] != 9 {
		t.Fatalf("Poll = %v,%v", got, ok)
	}
	if _, ok := b.Poll(); ok {
		t.Fatal("phantom frame")
	}
	if a.TrySend(7, frame) {
		t.Fatal("send to unknown node accepted")
	}
	if a.LocalNode() != 0 || b.LocalNode() != 1 {
		t.Fatal("LocalNode wrong")
	}
}

func TestFabricBackpressure(t *testing.T) {
	f := NewFabric(2)
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	if !a.TrySend(1, make([]byte, 64)) || !a.TrySend(1, make([]byte, 64)) {
		t.Fatal("fill failed")
	}
	if a.TrySend(1, make([]byte, 64)) {
		t.Fatal("send to full port accepted")
	}
	st := a.(*fabricPort).Stats()
	if st.Sent != 2 || st.SendBusy != 1 {
		t.Fatalf("stats = %+v", st)
	}
	b.Poll()
	if !a.TrySend(1, make([]byte, 64)) {
		t.Fatal("send after drain failed")
	}
}

// TestFabricAttachWhileSending attaches nodes while another node's engine
// is sending: the sender reads the port table without a lock, so (under
// -race) Attach's copy-on-write publication must be what orders the two.
// A send to a node not yet attached is refused; once Attach returns, the
// next send to it lands.
func TestFabricAttachWhileSending(t *testing.T) {
	const nodes = 32
	f := NewFabric(64)
	a, _ := f.Attach(0)
	attached := make(chan wire.NodeID)
	done := make(chan struct{})
	go func() {
		defer close(done)
		frame := make([]byte, 64)
		for dst := range attached {
			if !a.TrySend(dst, frame) {
				t.Errorf("send to node %d refused after Attach returned", dst)
			}
			a.TrySend(dst+1, frame) // may race the next Attach: either answer is legal
		}
	}()
	ports := make([]Transport, 0, nodes)
	for n := wire.NodeID(1); n <= nodes; n++ {
		p, err := f.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		ports = append(ports, p)
		attached <- n
	}
	close(attached)
	<-done
	for i, p := range ports {
		got := 0
		for _, ok := p.Poll(); ok; _, ok = p.Poll() {
			got++
		}
		if got < 1 || got > 2 {
			t.Errorf("node %d received %d frames, want 1 or 2", i+1, got)
		}
	}
	if _, err := f.Attach(3); err == nil {
		t.Error("duplicate Attach accepted")
	}
}

func TestFabricConcurrentOrderPerPair(t *testing.T) {
	f := NewFabric(1024)
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			frame := make([]byte, 64)
			frame[0] = byte(i)
			frame[1] = byte(i >> 8)
			if a.TrySend(1, frame) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < n; {
		if frame, ok := b.Poll(); ok {
			got := int(frame[0]) | int(frame[1])<<8
			if got != i&0xFFFF {
				t.Fatalf("out of order: got %d, want %d", got, i&0xFFFF)
			}
			i++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	st := b.(*fabricPort).Stats()
	if st.Delivered != n {
		t.Fatalf("Delivered = %d", st.Delivered)
	}
}
