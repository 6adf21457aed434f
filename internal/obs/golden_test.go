package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"flipc/internal/duralog"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/registrystore"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// fixture is one node's full health state: every source the surface
// renders, set to fixed values so the exposition is byte-stable.
type fixture struct {
	peers   []nettrans.PeerHealth
	quar    []engine.QuarantinedEndpoint
	reg     registrystore.Health
	shards  []registrystore.ShardHealth
	durable []duralog.TopicHealth
	gw      gateway.Health
}

func healthyFixture() fixture {
	return fixture{
		peers: []nettrans.PeerHealth{
			{Node: 1, State: nettrans.PeerConnected, Addr: "127.0.0.1:7401", Sent: 120, Reconnects: 1, MeanOutageMs: 12.5},
			{Node: 2, State: nettrans.PeerConnected, Sent: 7},
		},
		reg: registrystore.Health{Role: "primary", RegistryGen: 3, Seq: 120, SnapshotSeq: 100,
			WALRecords: 20, Epoch: 2, Promotions: 1},
		shards: []registrystore.ShardHealth{
			{Shard: 0, Role: "primary", Gen: 3, Seq: 120, Primary: true, Probed: true},
			{Shard: 1, Role: "primary", Gen: 5, Seq: 40, Primary: true, Probed: true},
			{Shard: 2, Role: "unknown"},
		},
		durable: []duralog.TopicHealth{
			{Topic: "audit", Health: duralog.Health{Head: 10, First: 1, Depth: 10, Segments: 1}},
			{Topic: "orders", Health: duralog.Health{Head: 100, First: 1, Depth: 100, Segments: 2,
				Cursors: map[string]uint64{"fast": 100, "slow": 10}, MaxLag: 90, LaggingSub: "slow"}},
		},
		gw: gateway.Health{Name: "gw-1", Conns: 3, Presence: 3, Patterns: 2,
			PerClass: [gateway.NumClasses]gateway.ClassHealth{
				{Class: "control", QueueDepth: 1},
				{Class: "normal", QueueDepth: 4, InboxDrops: 2},
				{Class: "bulk"},
			}},
	}
}

// goldenCases is the healthy fixture plus one degradation per source.
var goldenCases = []struct {
	name    string
	degrade func(*fixture)
}{
	{"healthy", func(*fixture) {}},
	{"peer_down", func(f *fixture) {
		f.peers[1].State, f.peers[1].Attempts, f.peers[1].SendFailures = nettrans.PeerReconnecting, 3, 9
	}},
	{"quarantined", func(f *fixture) {
		f.quar = []engine.QuarantinedEndpoint{{Slot: 5, Kind: engine.FaultBadBufID, Pass: 99}}
	}},
	{"registry_store_err", func(f *fixture) { f.reg.StoreErr = "registrystore: wal: disk full" }},
	{"shard_no_primary", func(f *fixture) { f.shards[1].Role, f.shards[1].Primary = "standby", false }},
	{"shard_probe_err", func(f *fixture) {
		f.shards[1] = registrystore.ShardHealth{Shard: 1, Role: "unknown", Err: "nameservice: timeout"}
	}},
	{"durable_breached", func(f *fixture) { f.durable[1].Breached, f.durable[1].RetentionBreaches = true, 1 }},
	{"gateway_saturated", func(f *fixture) { f.gw.PerClass[2].Saturated, f.gw.PerClass[2].InboxDrops = true, 17 }},
}

// fixtureRegistry holds one of each instrument kind with fixed values.
func fixtureRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("flipc_engine_delivered_total").Add(42)
	reg.Counter(metrics.Name("flipc_engine_recv_drops_total", "endpoint", "3")).Add(2)
	reg.Gauge("flipc_engine_quarantined").Set(0)
	reg.Func("flipc_transport_delivered_total", func() float64 { return 40 })
	h := reg.Histogram("flipc_recv_latency_ns")
	for _, v := range []uint64{1000, 2000, 3000, 50000} {
		h.Observe(v)
	}
	reg.Histogram("flipc_empty_ns")
	return reg
}

// server registers every source the way its layer does: the layer's
// document, judged by the layer's own rule.
func (f fixture) server() *Server {
	reg := fixtureRegistry()
	reg.Status("peers", func() (any, bool) { return f.peers, !slices.ContainsFunc(f.peers, nettrans.PeerHealth.Degraded) })
	reg.Status("quarantined", func() (any, bool) { return f.quar, len(f.quar) == 0 })
	reg.Status("registry", func() (any, bool) { return f.reg, !f.reg.Degraded() })
	reg.Status("shards", func() (any, bool) {
		return f.shards, !slices.ContainsFunc(f.shards, registrystore.ShardHealth.Degraded)
	})
	reg.Status("durable", func() (any, bool) {
		return f.durable, !slices.ContainsFunc(f.durable, duralog.TopicHealth.Degraded)
	})
	reg.Status("gateway", func() (any, bool) { return f.gw, !f.gw.Degraded() })
	return &Server{Registry: reg}
}

// TestGoldenExposition pins /healthz and /metrics?format=json for a
// node with every health source set: one healthy case and one
// degradation per source. A golden is compared as decoded JSON (key
// order is free), with two tolerated differences: a source the golden
// shows as null or [] may be absent, and the metrics document may list
// quarantined endpoints the golden lacks. The status code must match.
func TestGoldenExposition(t *testing.T) {
	for _, c := range goldenCases {
		f := healthyFixture()
		c.degrade(&f)
		h := f.server().Handler()
		for _, route := range []struct{ file, path string }{
			{"healthz", "/healthz"},
			{"metrics", "/metrics?format=json"},
		} {
			code, body := get(t, h, route.path)
			checkGolden(t, filepath.Join("testdata", c.name+"."+route.file+".golden"), code, body)
		}
		if code, _ := get(t, h, "/healthz"); (code == http.StatusOK) != (c.name == "healthy") {
			t.Errorf("%s: /healthz %d", c.name, code)
		}
	}
}

func checkGolden(t *testing.T, file string, code int, body string) {
	t.Helper()
	got := fmt.Sprintf("%d\n%s", code, body)
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wantCode, wantBody, _ := strings.Cut(string(raw), "\n")
	if wantCode != strconv.Itoa(code) {
		t.Errorf("%s: status %d, golden %s", file, code, wantCode)
	}
	var want, have map[string]any
	if err := json.Unmarshal([]byte(wantBody), &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if err := json.Unmarshal([]byte(body), &have); err != nil {
		t.Fatalf("%s: bad body: %v\n%s", file, err, body)
	}
	for k, v := range want {
		if _, ok := have[k]; !ok && (v == nil || reflect.DeepEqual(v, []any{})) {
			delete(want, k)
		}
	}
	if _, ok := want["quarantined"]; !ok && strings.Contains(file, ".metrics.") {
		delete(have, "quarantined")
	}
	if !reflect.DeepEqual(want, have) {
		t.Errorf("%s differs\n--- got\n%s--- golden\n%s", file, body, wantBody)
	}
}
