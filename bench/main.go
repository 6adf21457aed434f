// Command bench is the repository's benchmark: five closed-loop
// workloads driven by one generator goroutine that also pumps the
// engines, measured with the quiet-decile estimator, plus a traced pass
// that times each layer from outside. See README.md in this directory.
//
//	go run ./bench -seed 1                       full report, all workloads
//	go run ./bench -workload p2p_tcp -trace 0    one untraced run
//	go run ./bench -aa 3                         repeatability table
//
// With -workload and -trace both given, the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"flipc/internal/stats"
)

// defaultSeconds is one run's measured time, BENCHMARK.json's
// run_seconds: two timed phases of 8 s.
const defaultSeconds = 16.0

// smokeBelow is the run length under which a run is a smoke run: one
// set-up, a handful of stage batches, no floor on the batch count.
const smokeBelow = 2.0

// config is what one run is parameterised by.
type config struct {
	seed    uint64
	seconds float64 // measured time of one run: two phases of half each
	outDir  string  // traces and temp dirs; removed temp dirs never outlive a run
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// stageBatches is the number of batches behind each stage row.
	stageBatches int
}

func newConfig(seed uint64, seconds float64, outDir string) *config {
	c := &config{seed: seed, seconds: seconds, outDir: outDir, setups: 9, stageBatches: 1500}
	if seconds < smokeBelow {
		c.setups, c.stageBatches = 1, 8
	}
	return c
}

func (c *config) tempDir() (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, "tmp-")
}

func (c *config) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// minBatches is the fewest batches a timed phase may hold before the
// run refuses to report it: 1000 at the full 8-second phase, scaled for
// shorter runs, none for smoke runs. A replay round is one batch and
// lasts some 25 ms, so the round phase is held to a tenth of that.
func (c *config) minBatches(rounds bool) int {
	if c.seconds < smokeBelow {
		return 0
	}
	n := int(1000 * c.seconds / defaultSeconds)
	if rounds {
		n /= 10
	}
	return n
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system would see. Bound is
// the share of the parent's median by which a later change may worsen
// the metric. Failures are not a metric here: they are the run's
// attempted and failed counts, and any failure marks the run incorrect.
var endToEnd = []metricDef{
	{"oneway_ns", "ns", "lower", 0.25},
	{"stream_ns", "ns/delivery", "lower", 0.25},
	{"stream_cpu_ns", "ns/delivery", "lower", 0.25},
	{"allocs_per_delivery", "count", "lower", 0.01},
	{"alloc_bytes_per_delivery", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not. The tagged fields
// are the contract line a child run prints and -aa reads back.
type result struct {
	Workload  string                 `json:"-"`
	Traced    bool                   `json:"-"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Health is the generator-health part of the report.
	Health map[string]float64 `json:"-"`
	// Ledger is the loss terms behind Failed, by name.
	Ledger map[string]uint64 `json:"-"`
	Err    string            `json:"-"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{v, d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// setUp builds the workload's rig and runs the fixed-count warm-up,
// c.setups times over, and returns the last rig with the median time.
func setUp(c *config, w *workload) (*run, float64, error) {
	var times []float64
	var x *run
	for i := 0; i < c.setups; i++ {
		if x != nil {
			x.r.close()
		}
		t0 := time.Now()
		r, err := w.build(c, w)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		x = &run{w: w, r: r}
		if err := x.warm(); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return x, quantile(times, 0.5), nil
}

// conserve closes the run's books: every attempted delivery was either
// verified on arrival or is admitted by a public loss ledger.
func (x *run) conserve(res *result) {
	res.Attempted = x.attempted
	res.Ledger = x.r.ledger()
	for _, v := range res.Ledger {
		res.Failed += v
	}
	if x.attempted != x.delivered+res.Failed {
		res.Err = fmt.Sprintf("conservation imbalance: attempted %d != delivered %d + failed %d (ledger %v)",
			x.attempted, x.delivered, res.Failed, res.Ledger)
		if lost := x.attempted - x.delivered; lost > res.Failed {
			res.Failed = lost
		}
	} else if x.stalled {
		res.Err = fmt.Sprintf("closed loop stalled: %d deliveries lost (ledger %v)", res.Failed, res.Ledger)
	}
	res.Correct = res.Err == "" && res.Failed == 0
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(c *config, w *workload) *result {
	res := &result{Workload: w.name, Metrics: map[string]metricValue{}, Health: map[string]float64{}}
	x, setup, err := setUp(c, w)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer x.r.close()
	ping, strm, err := x.alternate(c.phase(0.5))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	x.conserve(res)
	if len(ping.wall) == 0 || len(strm.wall) == 0 { // stalled before both phases had a batch
		return res
	}
	_, rounds := x.r.(roundStreamer)
	for _, p := range []struct {
		name   string
		ph     *phase
		rounds bool
	}{{"pingpong", ping, false}, {"stream", strm, rounds}} {
		res.Health[p.name+".batches"] = float64(len(p.ph.wall))
		res.Health[p.name+".noisy_batch_share"] = noisyShare(p.ph.wall, quietDecile(p.ph.wall))
		res.Health[p.name+".gc_cycles"] = float64(p.ph.gcCycles)
		res.Health[p.name+".mean_ns"] = stats.Mean(p.ph.wall)
		res.Health[p.name+".p50_ns"] = quantile(p.ph.wall, 0.5)
		if min := c.minBatches(p.rounds); len(p.ph.wall) < min && res.Err == "" {
			res.Err = fmt.Sprintf("%s phase holds %d batches, fewer than the %d needed to report it", p.name, len(p.ph.wall), min)
			res.Correct = false
		}
	}
	res.set(endToEnd, "oneway_ns", quietDecile(ping.wall))
	res.set(endToEnd, "stream_ns", quietDecile(strm.wall))
	res.set(endToEnd, "stream_cpu_ns", quietDecile(strm.cpu))
	res.set(endToEnd, "allocs_per_delivery", float64(strm.mallocs)/float64(strm.deliveries))
	res.set(endToEnd, "alloc_bytes_per_delivery", float64(strm.allocBytes)/float64(strm.deliveries))
	res.set(endToEnd, "setup_s", setup)
	return res
}

// header prints the environment the numbers were taken in.
func header(c *config) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# flipc bench: nproc=%d GOMAXPROCS=%d %s kernel=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, c.seed, c.seconds)
	fmt.Printf("# loopback / in-process only: no real link is crossed; engines are pumped by the generator goroutine, never Start()ed\n")
}

func (r *result) print(defs []metricDef) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s) correct=%v attempted=%d failed=%d\n", r.Workload, pass, r.Correct, r.Attempted, r.Failed)
	if r.Err != "" {
		fmt.Printf("   ERROR: %s\n", r.Err)
	}
	keys := make([]string, 0, len(r.Health))
	for k := range r.Health {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   health %-32s %.6g\n", k, r.Health[k])
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		extra := ""
		if d.Name == "stream_ns" && m.Value > 0 {
			extra = fmt.Sprintf("  (%.0f deliveries/s)", 1e9/m.Value)
		}
		fmt.Printf("   %-34s %14.4f %s%s\n", d.Name, m.Value, m.Unit, extra)
	}
}

// contractLine is the last line of a single run's standard output.
func (r *result) contractLine() string {
	line := *r
	if line.Attempted == 0 { // a run that failed before its first send
		line.Attempted = 1
	}
	b, _ := json.Marshal(line)
	return string(b)
}

// row is one line of the -json output.
type row struct {
	Workload string  `json:"workload"`
	Pass     string  `json:"pass"` // "untraced" or "traced"
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
}

func rowsOf(results []*result) []row {
	var rows []row
	for _, r := range results {
		pass, defs := "untraced", endToEnd
		if r.Traced {
			pass, defs = "traced", perLayer
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; ok {
				rows = append(rows, row{r.Workload, pass, d.Name, m.Unit, m.Value})
			}
		}
	}
	return rows
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Uint64("seed", 1, "seed for payload bytes and gateway topic names")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per run (two phases of half each)")
		trace   = flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
		jsonOut = flag.String("json", "", "also write the metric rows to this file")
		aa      = flag.Int("aa", 0, "run this many complete untraced sets in child processes and print the spread")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if _, err := os.Stat("bench"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (go run ./bench)")
		os.Exit(2)
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{*w}
	}
	c := newConfig(*seed, *seconds, filepath.Join("bench", "out"))
	if *aa > 0 {
		os.Exit(runAA(c, ws, *aa))
	}
	header(c)
	var results []*result
	if *trace != 1 {
		for i := range ws {
			r := runUntraced(c, &ws[i])
			r.print(endToEnd)
			results = append(results, r)
		}
	}
	if *trace != 0 {
		tc := c
		if *trace < 0 { // the full report's traced pass is the short one
			tc = newConfig(c.seed, 4, c.outDir)
			tc.stageBatches = c.stageBatches
		}
		for i := range ws {
			r := runTraced(tc, &ws[i])
			r.print(perLayer)
			results = append(results, r)
		}
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rowsOf(results), "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	ok := true
	for _, r := range results {
		ok = ok && r.Correct
	}
	if len(results) == 1 {
		fmt.Println(results[0].contractLine())
	}
	if !ok {
		os.Exit(1)
	}
}
