package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterSingleWriter(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Inc()
	}
	c.Add(24)
	if c.Value() != 1024 {
		t.Fatalf("value = %d", c.Value())
	}
	c.Set(7)
	if c.Value() != 7 {
		t.Fatalf("after Set, value = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("value = %v", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("Counter(a) returned two instruments")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram(h) returned two instruments")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge(g) returned two instruments")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent").Add(42)
	r.Gauge("util").Set(0.5)
	r.Histogram("lat").Observe(100)
	r.Func("derived", func() float64 { return 9 })
	s := r.Snapshot()
	if s.Counters["sent"] != 42 {
		t.Fatalf("sent = %d", s.Counters["sent"])
	}
	if s.Gauges["util"] != 0.5 || s.Gauges["derived"] != 9 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if h := s.Histograms["lat"]; h.Count != 1 || h.Min != 100 || h.Max != 100 {
		t.Fatalf("hist = %+v", h)
	}
	cs, gs, hs := s.Names()
	if len(cs) != 1 || len(gs) != 2 || len(hs) != 1 {
		t.Fatalf("names = %v %v %v", cs, gs, hs)
	}
}

func TestStatuses(t *testing.T) {
	r := NewRegistry()
	if got := r.Statuses(); len(got) != 0 {
		t.Fatalf("empty registry statuses = %v", got)
	}
	down := false
	r.Status("peers", func() (any, bool) { return []string{"a"}, !down })
	r.Status("gateway", func() (any, bool) { return "gw", true })
	got := r.Statuses()
	if len(got) != 2 || got[0].Name != "gateway" || got[1].Name != "peers" || !got[0].OK || !got[1].OK {
		t.Fatalf("statuses = %+v", got)
	}
	down = true // evaluated per call, not at registration
	if got := r.Statuses(); got[1].OK {
		t.Fatalf("peers verdict not re-evaluated: %+v", got)
	}
	r.Status("gateway", func() (any, bool) { return nil, false })
	if got := r.Statuses(); len(got) != 2 || got[0].OK || got[0].Doc != nil {
		t.Fatalf("re-registration did not replace the source: %+v", got)
	}
	if s := r.Snapshot(); len(s.Gauges) != 0 {
		t.Fatalf("statuses leaked into the snapshot: %v", s.Gauges)
	}
}

// TestConcurrentSnapshotVsWriter is the registry's contract test: one
// writer per instrument hammering plain-store updates while many
// readers snapshot and other goroutines register new instruments.
// Must stay clean under -race.
func TestConcurrentSnapshotVsWriter(t *testing.T) {
	r := NewRegistry()
	const iters = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One single-writer goroutine per instrument.
	wg.Add(3)
	go func() {
		defer wg.Done()
		c := r.Counter("events")
		for i := 0; i < iters; i++ {
			c.Inc()
		}
	}()
	go func() {
		defer wg.Done()
		h := r.Histogram("latency")
		for i := 0; i < iters; i++ {
			h.Observe(uint64(i % 5000))
		}
	}()
	go func() {
		defer wg.Done()
		g := r.Gauge("depth")
		for i := 0; i < iters; i++ {
			g.Set(float64(i))
		}
	}()
	// Concurrent registrations (cold path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Counter(fmt.Sprintf("extra_%d", i)).Inc()
		}
	}()
	// Readers snapshot continuously until writers finish.
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				if s.Counters["events"] > iters {
					t.Error("counter overshot")
					return
				}
				if h, ok := s.Histograms["latency"]; ok && h.Count > 0 {
					if q := h.Quantile(0.5); math.IsNaN(q) {
						t.Error("NaN quantile on non-empty histogram")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := r.Snapshot()
	if s.Counters["events"] != iters {
		t.Fatalf("events = %d, want %d", s.Counters["events"], iters)
	}
	if h := s.Histograms["latency"]; h.Count != iters {
		t.Fatalf("latency count = %d, want %d", h.Count, iters)
	}
}

func TestName(t *testing.T) {
	if got := Name("m"); got != "m" {
		t.Fatalf("Name(m) = %q", got)
	}
	if got := Name("m", "ep", "5"); got != `m{ep="5"}` {
		t.Fatalf("got %q", got)
	}
	if got := Name("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("got %q", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("c%d", i)).Inc()
	}
	h := r.Histogram("h")
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
