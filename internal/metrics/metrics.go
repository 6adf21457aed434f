// Package metrics is FLIPC's wait-free observability toolkit: a
// registry of instruments that hot paths update with plain loads and
// stores and readers snapshot without locks — the same discipline the
// communication buffer imposes on the engine/application boundary
// (see internal/waitfree).
//
// Every instrument follows the single-writer rule: exactly one
// goroutine writes it, any number read it. Updates are a load and a
// store of a machine word (never a read-modify-write, never a lock),
// so an instrumented hot path cannot be stalled by a scraper and a
// scraper never waits on a hot path. Readers may observe a snapshot
// mid-update (e.g. a histogram whose count is one ahead of its bucket
// sums); that transient skew is the documented price of wait-freedom,
// exactly as with the paper's two-location drop counters.
//
// The registry itself is copy-on-write: registration (cold path) takes
// a mutex and swaps a new instrument map in atomically; lookups and
// snapshots only dereference the current map. Hot paths should hold
// the instrument pointer, not look it up per event.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a single-writer cumulative counter. The writer calls Inc
// or Add; any goroutine may call Value. The update is a plain
// load+store (wait-free, never a locked RMW), which is safe because
// only one goroutine writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Single writer only.
func (c *Counter) Inc() { c.v.Store(c.v.Load() + 1) }

// Add adds n. Single writer only.
func (c *Counter) Add(n uint64) { c.v.Store(c.v.Load() + n) }

// Set overwrites the value — for mirroring a counter maintained
// elsewhere (e.g. an engine Stats field) into the registry.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count. Safe from any goroutine.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a single-writer instantaneous value.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores the value. Single writer only (the store itself is
// atomic, so concurrent writers would not corrupt — they would race).
func (g *Gauge) Set(x float64) { g.v.Store(math.Float64bits(x)) }

// Value returns the current value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// instruments is one immutable registry generation.
type instruments struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
	status   map[string]func() (any, bool)
}

// Registry holds named instruments. Registration copies the instrument
// maps; readers and hot-path writers never take the lock.
type Registry struct {
	mu  sync.Mutex // registration only
	cur atomic.Pointer[instruments]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.cur.Store(&instruments{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
		status:   map[string]func() (any, bool){},
	})
	return r
}

// clone copies the current generation for a registration.
func (r *Registry) clone() *instruments {
	old := r.cur.Load()
	n := &instruments{
		counters: make(map[string]*Counter, len(old.counters)+1),
		gauges:   make(map[string]*Gauge, len(old.gauges)+1),
		hists:    make(map[string]*Histogram, len(old.hists)+1),
		funcs:    make(map[string]func() float64, len(old.funcs)+1),
		status:   make(map[string]func() (any, bool), len(old.status)+1),
	}
	for k, v := range old.counters {
		n.counters[k] = v
	}
	for k, v := range old.gauges {
		n.gauges[k] = v
	}
	for k, v := range old.hists {
		n.hists[k] = v
	}
	for k, v := range old.funcs {
		n.funcs[k] = v
	}
	for k, v := range old.status {
		n.status[k] = v
	}
	return n
}

// Counter returns the named counter, creating it on first use. Names
// follow Prometheus conventions; a label set may be appended with
// Name. The returned instrument must have a single writer.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.cur.Load().counters[name]; ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cur.Load().counters[name]; ok {
		return c
	}
	n := r.clone()
	c := &Counter{}
	n.counters[name] = c
	r.cur.Store(n)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.cur.Load().gauges[name]; ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.cur.Load().gauges[name]; ok {
		return g
	}
	n := r.clone()
	g := &Gauge{}
	n.gauges[name] = g
	r.cur.Store(n)
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.cur.Load().hists[name]; ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.cur.Load().hists[name]; ok {
		return h
	}
	n := r.clone()
	h := &Histogram{}
	h.init()
	n.hists[name] = h
	r.cur.Store(n)
	return h
}

// Func registers a gauge computed at snapshot time — the bridge for
// components that already maintain their own atomics (e.g. the TCP
// transport's loss counters). fn must be safe to call from any
// goroutine.
func (r *Registry) Func(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.clone()
	n.funcs[name] = fn
	r.cur.Store(n)
}

// Status registers a health source: a layer's own document and its
// own verdict on it (doc must marshal to JSON; ok is false when the
// layer is degraded). Like Func it is evaluated at scrape time, on the
// scraper's goroutine, and costs the message path nothing. The rule for
// "degraded" thus lives with the layer that knows it, and a renderer
// only shows each document under its name and ANDs the verdicts.
// Registering a name again replaces the source. fn must be safe to call
// from any goroutine.
func (r *Registry) Status(name string, fn func() (doc any, ok bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.clone()
	n.status[name] = fn
	r.cur.Store(n)
}

// Status is one health source's reading.
type Status struct {
	Name string
	Doc  any
	OK   bool
}

// Statuses evaluates every health source, ordered by name.
func (r *Registry) Statuses() []Status {
	ins := r.cur.Load()
	out := make([]Status, 0, len(ins.status))
	for name, fn := range ins.status {
		doc, ok := fn()
		out = append(out, Status{Name: name, Doc: doc, OK: ok})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot is a point-in-time copy of every instrument. Func gauges
// are evaluated into Gauges.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Snapshot reads every instrument without blocking any writer.
func (r *Registry) Snapshot() Snapshot {
	ins := r.cur.Load()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(ins.counters)),
		Gauges:     make(map[string]float64, len(ins.gauges)+len(ins.funcs)),
		Histograms: make(map[string]HistSnapshot, len(ins.hists)),
	}
	for k, c := range ins.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range ins.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range ins.funcs {
		s.Gauges[k] = fn()
	}
	for k, h := range ins.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Names returns all instrument names, sorted — for deterministic
// rendering.
func (s Snapshot) Names() (counters, gauges, hists []string) {
	for k := range s.Counters {
		counters = append(counters, k)
	}
	for k := range s.Gauges {
		gauges = append(gauges, k)
	}
	for k := range s.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// Name builds an instrument name with a Prometheus-style label set:
// Name("flipc_recv_latency_ns", "endpoint", "5") returns
// `flipc_recv_latency_ns{endpoint="5"}`. Pairs are key, value, key,
// value, ...; an odd tail is ignored.
func Name(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	out := base + "{"
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			out += ","
		}
		out += kv[i] + `="` + kv[i+1] + `"`
	}
	return out + "}"
}
