package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from bench/ only (spans
// inside internal/ are a later change). Spans of one message share Msg;
// Parent is the id of the enclosing span, or -1.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	Msg    uint64 `json:"msg"`
}

// spanAgg accumulates one span name over a whole run, so the per-layer
// numbers cover every call even after the ring has wrapped.
type spanAgg struct {
	Calls uint64 `json:"calls"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"` // duration minus the part child spans cover
}

type openSpan struct {
	span
	children int64 // ns covered by child spans that have ended
}

// tracer records spans in a preallocated ring and writes them out when
// the run ends. It is driven by the single generator goroutine, so
// nesting is a stack. A nil *tracer is the untraced run: every method
// is a no-op, which keeps the call sites identical in both runs.
type tracer struct {
	now   func() int64
	ring  []span
	next  int64 // id of the next span; ring slot is id % len(ring)
	stack []openSpan
	agg   map[string]*spanAgg
}

// traceRingSpans bounds the written trace; the aggregates are unbounded.
const traceRingSpans = 1 << 15

func newTracer() *tracer {
	t0 := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(t0)) })
}

func newTracerClock(now func() int64) *tracer {
	return &tracer{now: now, ring: make([]span, traceRingSpans), stack: make([]openSpan, 0, 8), agg: make(map[string]*spanAgg)}
}

// begin opens a span nested in whatever span is open.
func (t *tracer) begin(name string, msg uint64) {
	if t == nil {
		return
	}
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, openSpan{span: span{ID: t.next, Name: name, Start: t.now(), Parent: parent, Msg: msg}})
	t.next++
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	o.End = t.now()
	t.commit(o.span, o.children)
	if n > 0 {
		t.stack[n-1].children += o.End - o.Start
	}
}

// cancel discards the innermost open span: a poll that found no work is
// not a stage of any message, and recording each would flood the ring.
func (t *tracer) cancel() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	if t.stack[n].ID == t.next-1 {
		t.next-- // nothing nested in it: its id is free again
	}
	t.stack = t.stack[:n]
}

// add records a closed top-level span with explicit bounds (the gap
// spans, which are intervals between calls rather than calls).
func (t *tracer) add(name string, start, end int64, msg uint64) {
	if t == nil {
		return
	}
	t.commit(span{ID: t.next, Name: name, Start: start, End: end, Parent: -1, Msg: msg}, 0)
	t.next++
}

func (t *tracer) commit(s span, children int64) {
	t.ring[s.ID%int64(len(t.ring))] = s
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	d := s.End - s.Start
	a.Calls++
	a.Total += d
	a.Self += d - children
}

// clock reads the tracer's clock (0 when untraced).
func (t *tracer) clock() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// calls returns how many spans with the given name prefix were recorded.
func (t *tracer) calls(prefix string) uint64 {
	var n uint64
	for name, a := range t.agg {
		if strings.HasPrefix(name, prefix) {
			n += a.Calls
		}
	}
	return n
}

// selfPerCall returns the mean self time of one span name.
func (t *tracer) selfPerCall(name string) float64 {
	a := t.agg[name]
	if a == nil || a.Calls == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Calls)
}

// spans returns the ring's surviving spans, oldest first.
func (t *tracer) spans() []span {
	n := t.next
	if n > int64(len(t.ring)) {
		n = int64(len(t.ring))
	}
	out := make([]span, 0, n)
	for id := t.next - n; id < t.next; id++ {
		if s := t.ring[id%int64(len(t.ring))]; s.ID == id && s.Name != "" {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the aggregates and the surviving spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Aggregates map[string]*spanAgg `json:"aggregates"`
		Spans      []span              `json:"spans"`
	}{t.agg, t.spans()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
