// Package obs is the node observability surface: an HTTP handler that
// renders a node's wait-free metrics registry and trace ring. It knows
// no layer's internals: each layer registers its own health source in
// the registry (metrics.Registry.Status), with its own document and its
// own rule for "degraded", and obs shows every source under its name.
//
// Routes:
//
//	/metrics      Prometheus text exposition (default) or JSON with
//	              server-side quantiles (?format=json): the keys
//	              counters, gauges and histograms, plus one key per
//	              health source. flipcstat -watch consumes it.
//	/healthz      200 when every health source is healthy, 503
//	              otherwise. JSON body with "healthy" plus one key per
//	              health source.
//	/debug/trace  plain-text dump of the trace ring, oldest first.
//
// A health source whose document is empty (nil, or an empty slice or
// map) is left out of both bodies. The FLIPC layers register peers
// (nettrans), quarantined (engine), gateway (gateway.Mux), and, from
// flipcd, registry, shards and durable; each layer's health type states
// when it is degraded.
//
// Scrapes never block the message path: every read is a registry
// snapshot (plain loads) or a health source evaluated on the scraper's
// goroutine.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"

	"flipc/internal/metrics"
	"flipc/internal/trace"
)

// Server bundles the observable parts of one node. Either field may be
// nil; the corresponding route degrades (empty metrics and healthy,
// 404 trace).
type Server struct {
	// Registry is the node's metrics registry, health sources included.
	Registry *metrics.Registry
	// Trace is the node's trace ring, dumped by /debug/trace.
	Trace *trace.Ring
}

// HistJSON is one histogram in the JSON exposition: counts plus
// server-side quantiles, so consumers need no bucket layout knowledge.
// Quantile fields are 0 (not NaN, which JSON cannot carry) when the
// histogram is empty — check Count.
type HistJSON struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// MetricsJSON is the instrument part of the /metrics?format=json
// document; each health source adds one more key, its name.
type MetricsJSON struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistJSON `json:"histograms"`
}

// Handler returns the HTTP handler serving the observability routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	return mux
}

// jsonQuantile maps an empty-histogram NaN to 0 for JSON.
func jsonQuantile(h metrics.HistSnapshot, q float64) float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// instruments builds the instrument part of the JSON exposition from
// the current registry state.
func (s *Server) instruments() MetricsJSON {
	doc := MetricsJSON{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistJSON{},
	}
	if s.Registry == nil {
		return doc
	}
	snap := s.Registry.Snapshot()
	doc.Counters = snap.Counters
	doc.Gauges = snap.Gauges
	for name, h := range snap.Histograms {
		j := HistJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
		if h.Count > 0 {
			j.Mean = h.Mean()
			j.P50 = jsonQuantile(h, 0.50)
			j.P90 = jsonQuantile(h, 0.90)
			j.P99 = jsonQuantile(h, 0.99)
			j.P999 = jsonQuantile(h, 0.999)
		}
		doc.Histograms[name] = j
	}
	return doc
}

// health evaluates every health source into doc, each under its name
// (an empty document is left out), and reports whether all are healthy.
func (s *Server) health(doc map[string]any) bool {
	if s.Registry == nil {
		return true
	}
	healthy := true
	for _, st := range s.Registry.Statuses() {
		healthy = healthy && st.OK
		if !empty(st.Doc) {
			doc[st.Name] = st.Doc
		}
	}
	return healthy
}

// empty reports a document with nothing to show: nil, or an empty
// slice or map.
func empty(doc any) bool {
	v := reflect.ValueOf(doc)
	switch v.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Slice, reflect.Map:
		return v.Len() == 0
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		m := s.instruments()
		doc := map[string]any{"counters": m.Counters, "gauges": m.Gauges, "histograms": m.Histograms}
		s.health(doc)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
}

// baseName strips a Prometheus label set from an instrument name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeled splices extra labels into a possibly-labeled name:
// labeled(`m{peer="1"}`, `quantile="0.5"`) = `m{peer="1",quantile="0.5"}`.
func labeled(name, extra string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// writePrometheus renders the registry's instruments in the
// Prometheus text exposition format. Histograms are rendered as
// summaries: precomputed quantiles plus _sum and _count, which keeps
// the exposition small (the raw layout has 976 buckets per histogram).
func (s *Server) writePrometheus(w io.Writer) {
	if s.Registry == nil {
		return
	}
	snap := s.Registry.Snapshot()
	counters, gauges, hists := snap.Names()
	lastType := ""
	for _, name := range counters {
		if b := baseName(name); b != lastType {
			fmt.Fprintf(w, "# TYPE %s counter\n", b)
			lastType = b
		}
		fmt.Fprintf(w, "%s %d\n", name, snap.Counters[name])
	}
	lastType = ""
	for _, name := range gauges {
		if b := baseName(name); b != lastType {
			fmt.Fprintf(w, "# TYPE %s gauge\n", b)
			lastType = b
		}
		fmt.Fprintf(w, "%s %g\n", name, snap.Gauges[name])
	}
	lastType = ""
	for _, name := range hists {
		h := snap.Histograms[name]
		if b := baseName(name); b != lastType {
			fmt.Fprintf(w, "# TYPE %s summary\n", b)
			lastType = b
		}
		if h.Count > 0 {
			for _, q := range []struct {
				label string
				q     float64
			}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}} {
				fmt.Fprintf(w, "%s %g\n", labeled(name, `quantile="`+q.label+`"`), h.Quantile(q.q))
			}
		}
		fmt.Fprintf(w, "%s %d\n", baseSuffix(name, "_sum"), h.Sum)
		fmt.Fprintf(w, "%s %d\n", baseSuffix(name, "_count"), h.Count)
	}
}

// baseSuffix appends a suffix to the base name, preserving any label
// set: baseSuffix(`m{e="1"}`, "_sum") = `m_sum{e="1"}`.
func baseSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{}
	healthy := s.health(doc)
	doc["healthy"] = healthy
	w.Header().Set("Content-Type", "application/json")
	if !healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.Trace == nil {
		http.Error(w, "trace ring not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# %d events recorded (ring shows most recent)\n", s.Trace.Total())
	s.Trace.Dump(w)
}
