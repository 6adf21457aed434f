// Package obs is the node observability surface: an HTTP handler that
// exposes the wait-free metrics registry, transport peer health, and
// the trace ring of a running FLIPC node.
//
// Routes:
//
//	/metrics      Prometheus text exposition (default) or JSON with
//	              server-side quantiles (?format=json) — the schema
//	              flipcstat -watch consumes.
//	/healthz      200 when every known peer is connected (or none are
//	              known), no endpoint is quarantined, no durable
//	              topic log is degraded (sticky I/O error, or a cursor
//	              lagging past the retention horizon), and — on sharded
//	              registry nodes — every registry shard has a live
//	              primary; 503 otherwise. JSON body with peer states,
//	              quarantined endpoints, per-topic durable log health,
//	              and the per-shard registry roll-up.
//	/debug/trace  plain-text dump of the trace ring, oldest first.
//
// Scrapes never block the message path: every read is a registry
// snapshot (plain loads) or a per-peer health copy. The cost of a
// scrape lands entirely on the scraper's goroutine.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"

	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/registrystore"
	"flipc/internal/trace"
)

// Server bundles the observable parts of one node. Any field may be
// nil; the corresponding route degrades (empty metrics, healthy with
// no peers, 404 trace).
type Server struct {
	// Registry is the node's metrics registry.
	Registry *metrics.Registry
	// Health returns the transport's per-peer health snapshots
	// (typically nettrans.Transport.Health).
	Health func() []nettrans.PeerHealth
	// Trace is the node's trace ring, dumped by /debug/trace.
	Trace *trace.Ring
	// Quarantined returns the engine's quarantined endpoints (typically
	// engine.Engine.Quarantined — safe from any goroutine). A non-empty
	// result marks the node degraded on /healthz: the engine has fenced
	// off part of the communication buffer.
	Quarantined func() []engine.QuarantinedEndpoint
	// RegistryHealth returns the durable registry's role, generation,
	// and WAL/snapshot state (registrystore.Manager.Health) — set only
	// on registry nodes. Surfaced in both /metrics?format=json and
	// /healthz so operators and flipcstat see failover state live.
	RegistryHealth func() registrystore.Health
	// DurableHealth returns per-topic durable log health (typically a
	// closure over the open logs' Health, or duralog.ScanDir for a
	// read-only sweep) — set only on nodes hosting durable topic logs.
	// Surfaced in /metrics?format=json and /healthz; a cursor lagging
	// past the retention horizon (Breached) or a sticky log error marks
	// the node degraded.
	DurableHealth func() []duralog.TopicHealth
	// ShardHealth returns the per-shard registry roll-up of a sharded
	// deployment (one entry per shard in the map, probed by the
	// registry node's housekeeping) — set only on sharded registry
	// nodes. Surfaced in /metrics?format=json and /healthz; a shard
	// confirmed to have no live primary, or whose probe errors, marks
	// the node degraded with 503.
	ShardHealth func() []ShardJSON
	// GatewayHealth returns the client edge plane's health — set only
	// on gateway daemons (flipcgw), typically gateway.Mux.Health.
	// Surfaced in /metrics?format=json and /healthz; a saturated
	// endpoint class (the shared class inbox dropped frames in the last
	// housekeeping tick) marks the node degraded with 503 — clients are
	// losing frames before per-client accounting can see them.
	GatewayHealth func() *gateway.Health
}

// ShardJSON is one registry shard's status in the JSON exposition.
// Probed false with an empty Err means the shard has no address hint
// to probe — unknown, which the health roll-up does not treat as dead.
type ShardJSON struct {
	Shard   uint32 `json:"shard"`
	Role    string `json:"role"`
	Gen     uint64 `json:"gen"`
	Seq     uint64 `json:"seq"`
	Primary bool   `json:"primary"`
	Probed  bool   `json:"probed"`
	Err     string `json:"err,omitempty"`
}

func (s *Server) gateway() *gateway.Health {
	if s.GatewayHealth == nil {
		return nil
	}
	return s.GatewayHealth()
}

func (s *Server) shards() []ShardJSON {
	if s.ShardHealth == nil {
		return nil
	}
	return s.ShardHealth()
}

func (s *Server) registryHealth() *registrystore.Health {
	if s.RegistryHealth == nil {
		return nil
	}
	h := s.RegistryHealth()
	return &h
}

// QuarantineJSON is one quarantined endpoint in the JSON exposition.
type QuarantineJSON struct {
	Slot int    `json:"slot"`
	Kind string `json:"kind"`
	Pass uint64 `json:"pass"`
}

func (s *Server) quarantined() []QuarantineJSON {
	if s.Quarantined == nil {
		return nil
	}
	qs := s.Quarantined()
	out := make([]QuarantineJSON, 0, len(qs))
	for _, q := range qs {
		out = append(out, QuarantineJSON{Slot: q.Slot, Kind: q.Kind.String(), Pass: q.Pass})
	}
	return out
}

// DurableJSON is one durable topic log's health in the JSON
// exposition: depth and cursor lag are what flipcstat -watch renders;
// breached means the slowest cursor's next needed sequence was
// force-retired by retention, so its resume will start late with a
// counted gap.
type DurableJSON struct {
	Topic             string            `json:"topic"`
	Head              uint64            `json:"head"`
	First             uint64            `json:"first"`
	Depth             uint64            `json:"depth"`
	Segments          int               `json:"segments"`
	Cursors           map[string]uint64 `json:"cursors,omitempty"`
	MaxLag            uint64            `json:"max_lag"`
	LaggingSub        string            `json:"lagging_sub,omitempty"`
	Breached          bool              `json:"breached"`
	RetentionBreaches uint64            `json:"retention_breaches"`
	Err               string            `json:"err,omitempty"`
}

func (s *Server) durable() []DurableJSON {
	if s.DurableHealth == nil {
		return nil
	}
	ths := s.DurableHealth()
	out := make([]DurableJSON, 0, len(ths))
	for _, t := range ths {
		j := DurableJSON{
			Topic:             t.Topic,
			Head:              t.Head,
			First:             t.First,
			Depth:             t.Depth,
			Segments:          t.Segments,
			Cursors:           t.Cursors,
			MaxLag:            t.MaxLag,
			LaggingSub:        t.LaggingSub,
			Breached:          t.Breached,
			RetentionBreaches: t.RetentionBreaches,
		}
		if t.Err != nil {
			j.Err = t.Err.Error()
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
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

// PeerJSON is one peer's health in the JSON exposition.
type PeerJSON struct {
	Node         uint16  `json:"node"`
	State        string  `json:"state"`
	Addr         string  `json:"addr,omitempty"`
	Sent         uint64  `json:"sent"`
	SendFailures uint64  `json:"send_failures"`
	Reconnects   uint64  `json:"reconnects"`
	Attempts     int     `json:"attempts,omitempty"`
	MeanOutageMs float64 `json:"mean_outage_ms"`
}

// MetricsJSON is the /metrics?format=json document.
type MetricsJSON struct {
	Counters   map[string]uint64     `json:"counters"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]HistJSON   `json:"histograms"`
	Peers      []PeerJSON            `json:"peers"`
	Registry   *registrystore.Health `json:"registry,omitempty"`
	Durable    []DurableJSON         `json:"durable,omitempty"`
	Shards     []ShardJSON           `json:"shards,omitempty"`
	Gateway    *gateway.Health       `json:"gateway,omitempty"`
}

// Handler returns the HTTP handler serving the observability routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	return mux
}

func (s *Server) peers() []PeerJSON {
	if s.Health == nil {
		return nil
	}
	hs := s.Health()
	out := make([]PeerJSON, 0, len(hs))
	for _, h := range hs {
		out = append(out, PeerJSON{
			Node:         uint16(h.Node),
			State:        h.State.String(),
			Addr:         h.Addr,
			Sent:         h.Sent,
			SendFailures: h.SendFailures,
			Reconnects:   h.Reconnects,
			Attempts:     h.Attempts,
			MeanOutageMs: h.MeanOutageMs,
		})
	}
	return out
}

// jsonQuantile maps an empty-histogram NaN to 0 for JSON.
func jsonQuantile(h metrics.HistSnapshot, q float64) float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// MetricsDoc builds the JSON exposition document from the current
// instrument state.
func (s *Server) MetricsDoc() MetricsJSON {
	doc := MetricsJSON{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistJSON{},
		Peers:      s.peers(),
		Registry:   s.registryHealth(),
		Durable:    s.durable(),
		Shards:     s.shards(),
		Gateway:    s.gateway(),
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.MetricsDoc())
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

// writePrometheus renders the registry (and peer health) in the
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
	peers := s.peers()
	quarantined := s.quarantined()
	reg := s.registryHealth()
	durable := s.durable()
	shards := s.shards()
	gw := s.gateway()
	healthy := len(quarantined) == 0
	if gw != nil && gw.Degraded() {
		// A saturated endpoint class drops frames at the shared inbox,
		// before per-client queues: every client on that class is
		// losing data, not just slow ones.
		healthy = false
	}
	if reg != nil && reg.StoreErr != "" {
		healthy = false // the registry can no longer make mutations durable
	}
	for _, sh := range shards {
		if (sh.Probed && !sh.Primary) || sh.Err != "" {
			// A shard confirmed to have no live primary (or whose probe
			// fails outright) means part of the topic namespace cannot
			// take mutations: the deployment is degraded even though
			// this node itself is fine.
			healthy = false
			break
		}
	}
	for _, t := range durable {
		if t.Breached || t.Err != "" {
			// A cursor lagged past the retention horizon (its resume
			// will start late with a counted gap) or the log can no
			// longer journal: durability is degraded.
			healthy = false
			break
		}
	}
	for _, p := range peers {
		if p.State != nettrans.PeerConnected.String() {
			healthy = false
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	// Sort for stable output (Health is already node-ordered; keep the
	// guarantee local).
	sort.Slice(peers, func(i, j int) bool { return peers[i].Node < peers[j].Node })
	json.NewEncoder(w).Encode(struct {
		Healthy     bool                  `json:"healthy"`
		Peers       []PeerJSON            `json:"peers"`
		Quarantined []QuarantineJSON      `json:"quarantined,omitempty"`
		Registry    *registrystore.Health `json:"registry,omitempty"`
		Durable     []DurableJSON         `json:"durable,omitempty"`
		Shards      []ShardJSON           `json:"shards,omitempty"`
		Gateway     *gateway.Health       `json:"gateway,omitempty"`
	}{healthy, peers, quarantined, reg, durable, shards, gw})
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
