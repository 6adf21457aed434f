package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/trace"
	"flipc/internal/wire"
)

// node is one in-process cluster member with its observability wired.
type node struct {
	tr  *nettrans.Transport
	d   *core.Domain
	reg *metrics.Registry
	tri *trace.Ring
	srv *Server
}

// newCluster starts a two-node TCP cluster with metrics registries,
// trace rings, and obs servers attached — the full wiring flipcd uses.
func newCluster(t *testing.T) [2]*node {
	t.Helper()
	var ns [2]*node
	for i := range ns {
		reg := metrics.NewRegistry()
		ring := trace.New(256)
		tr, err := nettrans.ListenConfig(nettrans.Config{
			Node:        wire.NodeID(i),
			Addr:        "127.0.0.1:0",
			MessageSize: 64,
			Trace:       ring,
			Metrics:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		ns[i] = &node{tr: tr, reg: reg, tri: ring}
	}
	if err := ns[0].tr.Dial(1, ns[1].tr.Addr()); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		d, err := core.NewDomain(core.Config{
			Node: wire.NodeID(i), MessageSize: 64, NumBuffers: 32,
			Engine: engine.Config{Trace: n.tri, Metrics: n.reg},
		}, n.tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		n.d = d
		n.srv = &Server{Registry: n.reg, Trace: n.tri}
	}
	return ns
}

// exchange sends count messages from src to a fresh endpoint on dst
// and waits for delivery, so dst's registry has latency observations.
func exchange(t *testing.T, src, dst *node, count int) {
	t.Helper()
	rep, err := dst.d.NewRecvEndpoint(32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count+1; i++ {
		m, err := dst.d.AllocBuffer()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Post(m); err != nil {
			t.Fatal(err)
		}
	}
	sep, err := src.d.NewSendEndpoint(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		m, err := src.d.AllocBuffer()
		if err != nil {
			t.Fatal(err)
		}
		n := copy(m.Payload(), fmt.Sprintf("obs %d", i))
		for sep.Send(m, rep.Addr(), n) != nil {
			if back, ok := sep.Acquire(); ok {
				src.d.FreeBuffer(back)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	got := 0
	for got < count && time.Now().Before(deadline) {
		m, ok := rep.Receive()
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		got++
		dst.d.FreeBuffer(m)
	}
	if got != count {
		t.Fatalf("delivered %d/%d", got, count)
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestScrapeLiveCluster drives messages across a real two-node TCP
// cluster and scrapes the receive side's /metrics: the one-way latency
// histogram must be populated, the transport counters visible, and the
// peer table connected.
func TestScrapeLiveCluster(t *testing.T) {
	ns := newCluster(t)
	exchange(t, ns[0], ns[1], 20)

	// JSON exposition on the receiving node.
	code, body := get(t, ns[1].srv.Handler(), "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics?format=json: %d", code)
	}
	var doc struct {
		MetricsJSON
		Peers []nettrans.PeerHealth `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	lat, ok := doc.Histograms["flipc_recv_latency_ns"]
	if !ok {
		t.Fatalf("no flipc_recv_latency_ns histogram; got %v", doc.Histograms)
	}
	if lat.Count < 20 {
		t.Fatalf("latency count = %d, want >= 20", lat.Count)
	}
	if !(lat.P50 > 0 && lat.P50 <= lat.P99 && lat.P99 <= float64(lat.Max)) {
		t.Fatalf("implausible quantiles: p50=%g p99=%g max=%d", lat.P50, lat.P99, lat.Max)
	}
	if doc.Counters["flipc_engine_delivered_total"] < 20 {
		t.Fatalf("delivered counter = %d", doc.Counters["flipc_engine_delivered_total"])
	}
	if doc.Gauges["flipc_transport_delivered_total"] < 20 {
		t.Fatalf("transport delivered = %g", doc.Gauges["flipc_transport_delivered_total"])
	}
	// Per-endpoint latency label must exist alongside the node-wide one.
	found := false
	for name := range doc.Histograms {
		if strings.HasPrefix(name, "flipc_recv_latency_ns{endpoint=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-endpoint latency histogram in %v", doc.Histograms)
	}
	if len(doc.Peers) != 1 || doc.Peers[0].State != nettrans.PeerConnected {
		t.Fatalf("peers = %+v", doc.Peers)
	}

	// Prometheus text exposition.
	code, body = get(t, ns[1].srv.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE flipc_engine_delivered_total counter",
		"# TYPE flipc_recv_latency_ns summary",
		`flipc_recv_latency_ns{quantile="0.5"}`,
		"flipc_recv_latency_ns_count",
		"flipc_transport_delivered_total",
		`flipc_peer_state{peer="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("text exposition missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	ns := newCluster(t)
	exchange(t, ns[0], ns[1], 1)

	code, body := get(t, ns[0].srv.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy cluster: %d %s", code, body)
	}
	// Sever the link from node 0's side: its peer goes reconnecting and
	// the endpoint must flip to 503.
	ns[0].tr.DropConn(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = get(t, ns[0].srv.Handler(), "/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stayed %d after DropConn: %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var h struct {
		Healthy bool                  `json:"healthy"`
		Peers   []nettrans.PeerHealth `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Healthy || len(h.Peers) != 1 || h.Peers[0].State != nettrans.PeerReconnecting {
		t.Fatalf("healthz body = %+v", h)
	}
}

func TestTraceRoute(t *testing.T) {
	ns := newCluster(t)
	exchange(t, ns[0], ns[1], 3)

	code, body := get(t, ns[0].srv.Handler(), "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/trace: %d", code)
	}
	if !strings.Contains(body, "send.ok") {
		t.Fatalf("trace dump missing send.ok:\n%s", body)
	}
	// A server with no ring 404s rather than panicking.
	code, _ = get(t, (&Server{}).Handler(), "/debug/trace")
	if code != http.StatusNotFound {
		t.Fatalf("nil-ring trace: %d", code)
	}
}

func TestEmptyServer(t *testing.T) {
	s := &Server{}
	code, body := get(t, s.Handler(), "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("empty /metrics: %d", code)
	}
	var doc MetricsJSON
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	code, _ = get(t, s.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("no peers should be healthy: %d", code)
	}
}

func TestHealthzAndsSources(t *testing.T) {
	// /healthz is healthy exactly when every source is, shows each
	// source's document under its name, and leaves empty ones out.
	reg := metrics.NewRegistry()
	lagOK := true
	reg.Status("durable", func() (any, bool) { return []string{"orders lag 90"}, lagOK })
	reg.Status("quarantined", func() (any, bool) { return []int(nil), true })
	s := &Server{Registry: reg}
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK || body != `{"durable":["orders lag 90"],"healthy":true}`+"\n" {
		t.Fatalf("healthy sources: %d %s", code, body)
	}
	lagOK = false
	code, body = get(t, s.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"healthy":false`) {
		t.Fatalf("one degraded source must degrade healthz: %d %s", code, body)
	}
	// The same documents ride /metrics?format=json for flipcstat -watch,
	// whatever their verdict.
	code, body = get(t, s.Handler(), "/metrics?format=json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); code != http.StatusOK || err != nil {
		t.Fatalf("metrics json: %d %v", code, err)
	}
	if _, ok := doc["durable"]; !ok {
		t.Fatalf("metrics json lacks the durable source: %s", body)
	}
	if _, ok := doc["quarantined"]; ok {
		t.Fatalf("empty source rendered: %s", body)
	}
}

func TestHealthzDurable(t *testing.T) {
	// A durable-log health source flips /healthz exactly when a cursor
	// breached retention or the log carries a sticky error; a merely
	// lagging cursor is reported but healthy.
	th := duralog.TopicHealth{Topic: "orders", Health: duralog.Health{
		Head: 100, First: 1, Depth: 100, Segments: 2,
		Cursors: map[string]uint64{"slow": 10}, MaxLag: 90, LaggingSub: "slow",
	}}
	reg := metrics.NewRegistry()
	reg.Status("durable", func() (any, bool) { return []duralog.TopicHealth{th}, !th.Degraded() })
	s := &Server{Registry: reg}
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("lagging-but-covered cursor should be healthy: %d %s", code, body)
	}
	if !strings.Contains(body, `"max_lag":90`) || !strings.Contains(body, `"orders"`) {
		t.Fatalf("healthz body missing durable lag: %s", body)
	}

	th.Breached = true
	code, body = get(t, s.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breached cursor must degrade healthz: %d %s", code, body)
	}
	if !strings.Contains(body, `"breached":true`) {
		t.Fatalf("healthz body missing breach: %s", body)
	}

	th.Breached = false
	th.Err = "disk on fire"
	code, body = get(t, s.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sticky log error must degrade healthz: %d %s", code, body)
	}
	if !strings.Contains(body, "disk on fire") {
		t.Fatalf("healthz body missing log error: %s", body)
	}

	// The same health rides /metrics?format=json for flipcstat -watch.
	code, body = get(t, s.Handler(), "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics json: %d", code)
	}
	var doc struct {
		Durable []duralog.TopicHealth `json:"durable"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Durable) != 1 || doc.Durable[0].LaggingSub != "slow" {
		t.Fatalf("metrics durable section = %+v", doc.Durable)
	}
}
