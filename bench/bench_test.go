package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"flipc/internal/stats"
)

// The estimator must recover the lower mode of a bimodal series: most
// batches cost the program's own time, a minority are inflated by a
// neighbour, and the reported value must not move with the minority.
func TestQuietDecileRecoversLowerMode(t *testing.T) {
	var series []float64
	for i := 0; i < 2000; i++ {
		v := 1000 + float64(i%21-10) // the program: 1000 ns ± 1 %
		if i%3 == 0 {
			v = 1800 + float64(i%400) // interference: 1.8–2.2×
		}
		series = append(series, v)
	}
	got := quietDecile(series)
	if math.Abs(got-1000)/1000 > 0.02 {
		t.Fatalf("quiet decile = %.1f, want the lower mode 1000 within 2 %%", got)
	}
	if m := stats.Mean(series); m < 1200 {
		t.Fatalf("mean = %.1f: the series is not bimodal enough to test anything", m)
	}
	if share := noisyShare(series, got); share < 0.1 || share > 0.34 {
		t.Fatalf("noisy share = %.3f, want the inflated batches above 2× counted", share)
	}
}

// Self time is a span's duration minus what its children cover.
func TestSpanSelfTime(t *testing.T) {
	clock := int64(0)
	tr := newTracerClock(func() int64 { return clock })
	tr.begin("outer", 7) // 0..100
	clock = 10
	tr.begin("inner", 7) // 10..40
	clock = 40
	tr.end()
	clock = 50
	tr.begin("idle", 7) // cancelled: leaves no trace
	clock = 60
	tr.cancel()
	tr.begin("inner", 7) // 60..80
	clock = 80
	tr.end()
	clock = 100
	tr.end()
	tr.add("gap", 100, 130, 7)

	if a := tr.agg["outer"]; a.Calls != 1 || a.Total != 100 || a.Self != 50 {
		t.Fatalf("outer = %+v, want 1 call, total 100, self 50", *a)
	}
	if a := tr.agg["inner"]; a.Calls != 2 || a.Total != 50 || a.Self != 50 {
		t.Fatalf("inner = %+v, want 2 calls, total 50, self 50", *a)
	}
	if _, ok := tr.agg["idle"]; ok {
		t.Fatal("a cancelled span was recorded")
	}
	if got := tr.selfPerCall("gap"); got != 30 {
		t.Fatalf("gap self per call = %v, want 30", got)
	}
	spans := tr.spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans survived, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Msg != 7 {
			t.Fatalf("span %q lost its message id", s.Name)
		}
		if s.Name == "inner" && s.Parent != spans[0].ID {
			t.Fatalf("inner span's parent = %d, want the outer span %d", s.Parent, spans[0].ID)
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the tables in this package name the same
// workloads and metrics, with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the table %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), table has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over the 200 allowed", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("manifest lists %d %s metrics, the table %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest has %+v, table has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if float64(m.RunSeconds) != defaultSeconds {
		t.Errorf("manifest run_seconds = %d, the default run is %v", m.RunSeconds, defaultSeconds)
	}
}

// A short run of every workload, untraced and traced, emits every
// metric the manifest names with a finite value, verifies every
// delivery and closes its conservation check; the -json rows carry the
// same values.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	c := newConfig(7, 0.2, t.TempDir())
	var results []*result
	for i := range workloads {
		w := &workloads[i]
		for _, pass := range []struct {
			run  func(*config, *workload) *result
			defs []metricDef
		}{{runUntraced, m.EndToEnd}, {runTraced, m.PerLayer}} {
			r := pass.run(c, w)
			if r.Err != "" || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.name, r.Traced, r.Correct, r.Attempted, r.Failed, r.Err)
			}
			if len(r.Metrics) != len(pass.defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, manifest names %d", w.name, r.Traced, len(r.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s is missing", w.name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v is not finite", w.name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.name, d.Name, v.Unit, d.Unit)
				case !r.Traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, d.Name, v.Value)
				}
			}
			results = append(results, r)
		}
		if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace was written: %v", w.name, err)
		}
	}

	// The layer separation, from the traced runs.
	byName := map[string]*result{}
	for _, r := range results {
		if r.Traced {
			byName[r.Workload] = r
		}
	}
	for _, name := range []string{"nettrans.calls", "topic.calls", "duralog.calls", "gateway.calls", "nettrans.trysend_ns", "topic.publish_ns", "gateway.pump_ns_per_delivery"} {
		if v := byName["p2p_fabric"].Metrics[name].Value; v != 0 {
			t.Errorf("p2p_fabric: %s = %v, want 0: the layer is not on its path", name, v)
		}
	}
	if v := byName["fanout_topic"].Metrics["duralog.calls"].Value; v != 0 {
		t.Errorf("fanout_topic: duralog.calls = %v, want 0", v)
	}
	for _, probe := range []struct{ workload, metric string }{
		{"p2p_tcp", "nettrans.calls"}, {"fanout_topic", "topic.calls"},
		{"durable_topic", "duralog.calls"}, {"gateway_edge", "gateway.calls"},
		{"durable_topic", "topic.resume_to_first_ns"}, {"p2p_fabric", "path.fit_fixed_ns"},
	} {
		if v := byName[probe.workload].Metrics[probe.metric].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want a positive value", probe.workload, probe.metric, v)
		}
	}

	// The row schema of -json.
	b, err := json.Marshal(rowsOf(results))
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	if want := len(workloads) * (len(m.EndToEnd) + len(m.PerLayer)); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		for _, key := range []string{"workload", "pass", "metric", "unit"} {
			if s, ok := r[key].(string); !ok || s == "" {
				t.Fatalf("row %v: %q is not a non-empty string", r, key)
			}
		}
		if _, ok := r["value"].(float64); !ok || len(r) != 5 {
			t.Fatalf("row %v: want exactly workload, pass, metric, unit and a numeric value", r)
		}
	}
}

// The contract line is one JSON object with exactly the four keys.
func TestContractLine(t *testing.T) {
	r := &result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{"setup_s": {0.5, "s"}}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("contract line has keys %v, want correct, attempted, failed, metrics", got)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("contract line lacks %q", k)
		}
	}
}

// A checker refuses gaps, reordering, forged fingerprints and, on the
// sampled messages, a changed body.
func TestCheckerRefusesBadStreams(t *testing.T) {
	g := newGen(3, topicPayload)
	msg := func(seq uint64) []byte {
		b := make([]byte, topicPayload)
		g.fill(b, seq)
		return b
	}
	c := newChecker(g, 1, 0)
	if err := c.check(msg(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.check(msg(2)); err == nil {
		t.Fatal("a gap was accepted")
	}
	forged := msg(1)
	forged[9] ^= 1
	if err := newChecker(g, 1, 1).check(forged); err == nil {
		t.Fatal("a forged fingerprint was accepted")
	}
	changed := msg(64)
	changed[40] ^= 1
	if err := newChecker(g, 1, 64).check(changed); err == nil {
		t.Fatal("a changed body was accepted on a sampled message")
	}
	lanes := newChecker(g, 4, 0)
	for _, seq := range []uint64{1, 0, 5, 3, 2, 4} { // FIFO within each lane only
		if err := lanes.check(msg(seq)); err != nil {
			t.Fatalf("lane-ordered sequence %d refused: %v", seq, err)
		}
	}
}
