package experiments

import (
	"fmt"
	"io"

	"flipc/internal/baseline"
	"flipc/internal/baseline/nx"
	"flipc/internal/baseline/pam"
	"flipc/internal/baseline/sunmos"
	"flipc/internal/sim"
	"flipc/internal/stats"
)

// steadyExchanges matches the paper's "test runs that include hundreds
// of message exchanges".
const steadyExchanges = 400

// flipcPublished returns the paper's Figure 4 fit (µs) at a given fixed
// message size, used where a published-FLIPC reference is compared
// against the models (E7).
func flipcPublished(messageSize int) float64 {
	return 15.45 + 0.00625*float64(messageSize)
}

// E1Result is Figure 4: latency vs message size.
type E1Result struct {
	Sizes      []int
	MeanMicros []float64
	SDMicros   []float64
	// Fit is the least-squares line over sizes >= 96 B, to compare with
	// the paper's 15.45 µs + 6.25 ns/B.
	Fit   stats.Fit
	Table Table
}

// E1Figure4 sweeps the boot-time fixed message size from 64 to 512
// bytes and measures steady-state one-way latency, reproducing
// Figure 4.
func E1Figure4(seed int64) (*E1Result, error) {
	res := &E1Result{}
	var fitX, fitY []float64
	for size := 64; size <= 512; size += 32 {
		pp, err := RunPingPong(PingPongConfig{
			MessageSize: size,
			Exchanges:   steadyExchanges,
			Seed:        seed + int64(size),
		})
		if err != nil {
			return nil, fmt.Errorf("E1 size %d: %w", size, err)
		}
		sum, err := stats.Summarize(pp.Steady())
		if err != nil {
			return nil, err
		}
		res.Sizes = append(res.Sizes, size)
		res.MeanMicros = append(res.MeanMicros, sum.Mean)
		res.SDMicros = append(res.SDMicros, sum.StdDev)
		if size >= 96 {
			fitX = append(fitX, float64(size))
			fitY = append(fitY, sum.Mean)
		}
	}
	fit, err := stats.LinearFit(fitX, fitY)
	if err != nil {
		return nil, err
	}
	res.Fit = fit

	res.Table = Table{
		ID:      "E1",
		Title:   "Figure 4 — FLIPC message latency vs message size (Paragon model)",
		Note:    "latency = 15.45µs + 6.25ns/byte for sizes >= 96B; range ~15.5-17µs; sd 0.5-0.65µs",
		Columns: []string{"size(B)", "latency(µs)", "sd(µs)", "fit(µs)"},
	}
	for i, size := range res.Sizes {
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.2f", res.MeanMicros[i]),
			fmt.Sprintf("%.2f", res.SDMicros[i]),
			fmt.Sprintf("%.2f", fit.Intercept+fit.Slope*float64(size)),
		})
	}
	res.Table.Rows = append(res.Table.Rows, []string{
		"fit", fmt.Sprintf("%.2f + %.2f ns/B", fit.Intercept, fit.Slope*1000),
		"", fmt.Sprintf("r2=%.4f", fit.R2),
	})
	return res, nil
}

// E2Result is the Related Work comparison table at 120 bytes.
type E2Result struct {
	FLIPCMicros  float64
	NXMicros     float64
	PAMMicros    float64
	SUNMOSMicros float64
	Table        Table
}

// E2Comparison reproduces the in-text comparison: one-way latency of a
// 120-byte application message on each Paragon messaging system.
// FLIPC's number is measured (128-byte fixed messages carry a 120-byte
// payload); the comparators are their calibrated protocol models.
func E2Comparison(seed int64) (*E2Result, error) {
	// 120 application bytes need a 128-byte fixed message (120+8
	// header, already 32-aligned).
	pp, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: steadyExchanges, Seed: seed})
	if err != nil {
		return nil, err
	}
	res := &E2Result{
		FLIPCMicros:  stats.Mean(pp.Steady()),
		NXMicros:     nx.New().OneWayLatency(120).Micros(),
		PAMMicros:    pam.New().OneWayLatency(120).Micros(),
		SUNMOSMicros: sunmos.New().OneWayLatency(120).Micros(),
	}
	res.Table = Table{
		ID:      "E2",
		Title:   "120-byte message latency across Paragon messaging systems",
		Note:    "FLIPC 16.2µs, PAM 26µs, SUNMOS 28µs, NX 46µs",
		Columns: []string{"system", "latency(µs)", "vs FLIPC"},
	}
	for _, row := range []struct {
		name string
		us   float64
	}{
		{"FLIPC (measured)", res.FLIPCMicros},
		{"Paragon Active Messages", res.PAMMicros},
		{"SUNMOS", res.SUNMOSMicros},
		{"NX (R1.3.2)", res.NXMicros},
	} {
		res.Table.Rows = append(res.Table.Rows, []string{
			row.name,
			fmt.Sprintf("%.1f", row.us),
			fmt.Sprintf("%.2fx", row.us/res.FLIPCMicros),
		})
	}
	return res, nil
}

// E3Result is the validity-check overhead.
type E3Result struct {
	WithoutMicros float64
	WithMicros    float64
	DeltaMicros   float64
	Table         Table
}

// E3ValidityChecks measures the cost of the engine's defensive checks.
func E3ValidityChecks(seed int64) (*E3Result, error) {
	off, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: steadyExchanges, Seed: seed})
	if err != nil {
		return nil, err
	}
	on, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: steadyExchanges, Seed: seed, Checks: true})
	if err != nil {
		return nil, err
	}
	res := &E3Result{
		WithoutMicros: stats.Mean(off.Steady()),
		WithMicros:    stats.Mean(on.Steady()),
	}
	res.DeltaMicros = res.WithMicros - res.WithoutMicros
	res.Table = Table{
		ID:      "E3",
		Title:   "Validity-check overhead (120-byte messages)",
		Note:    "configuring the checks adds about 2µs",
		Columns: []string{"configuration", "latency(µs)"},
		Rows: [][]string{
			{"checks off (trusted)", fmt.Sprintf("%.2f", res.WithoutMicros)},
			{"checks on (protected)", fmt.Sprintf("%.2f", res.WithMicros)},
			{"delta", fmt.Sprintf("+%.2f", res.DeltaMicros)},
		},
	}
	return res, nil
}

// E4Result is the cache-tuning ablation.
type E4Result struct {
	TunedMicros    float64
	LockedMicros   float64
	UnpaddedMicros float64
	UntunedMicros  float64 // locked + unpadded: the pre-tuning system
	Factor         float64
	Table          Table
}

// E4CacheAblation reproduces §Implementation's tuning story: the
// test-and-set-locked interfaces plus the false-sharing layout cost
// ~15 µs, almost a factor of two, against the tuned configuration.
func E4CacheAblation(seed int64) (*E4Result, error) {
	run := func(locked, unpadded bool) (float64, error) {
		pp, err := RunPingPong(PingPongConfig{
			MessageSize: 128, Exchanges: steadyExchanges, Seed: seed,
			Locked: locked, Unpadded: unpadded,
		})
		if err != nil {
			return 0, err
		}
		return stats.Mean(pp.Steady()), nil
	}
	res := &E4Result{}
	var err error
	if res.TunedMicros, err = run(false, false); err != nil {
		return nil, err
	}
	if res.LockedMicros, err = run(true, false); err != nil {
		return nil, err
	}
	if res.UnpaddedMicros, err = run(false, true); err != nil {
		return nil, err
	}
	if res.UntunedMicros, err = run(true, true); err != nil {
		return nil, err
	}
	res.Factor = res.UntunedMicros / res.TunedMicros
	res.Table = Table{
		ID:      "E4",
		Title:   "Cache tuning ablation (120-byte messages)",
		Note:    "the two optimizations together improved latency by ~15µs, almost a factor of two",
		Columns: []string{"configuration", "latency(µs)", "vs tuned"},
		Rows: [][]string{
			{"tuned: lock-free + line-isolated", fmt.Sprintf("%.2f", res.TunedMicros), "1.00x"},
			{"test-and-set locks only", fmt.Sprintf("%.2f", res.LockedMicros),
				fmt.Sprintf("%.2fx", res.LockedMicros/res.TunedMicros)},
			{"false-sharing layout only", fmt.Sprintf("%.2f", res.UnpaddedMicros),
				fmt.Sprintf("%.2fx", res.UnpaddedMicros/res.TunedMicros)},
			{"untuned: locks + false sharing", fmt.Sprintf("%.2f", res.UntunedMicros),
				fmt.Sprintf("%.2fx", res.Factor)},
		},
	}
	return res, nil
}

// E5Result is the cold-start anomaly.
type E5Result struct {
	ColdMicros   float64
	SteadyMicros float64
	DeltaMicros  float64
	Table        Table
}

// E5ColdStart reproduces the start-up transient: before the
// producer/consumer sharing pattern is established in the caches,
// writes find no remote copy to invalidate and exchanges run faster.
func E5ColdStart(seed int64) (*E5Result, error) {
	// Average the cold (first) exchange over many fresh runs to remove
	// jitter, as the paper averaged short runs.
	var colds []float64
	for r := 0; r < 50; r++ {
		pp, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: 2, Seed: seed + int64(r)})
		if err != nil {
			return nil, err
		}
		colds = append(colds, pp.Cold()...)
	}
	long, err := RunPingPong(PingPongConfig{MessageSize: 128, Exchanges: steadyExchanges, Seed: seed})
	if err != nil {
		return nil, err
	}
	res := &E5Result{
		ColdMicros:   stats.Mean(colds),
		SteadyMicros: stats.Mean(long.Steady()),
	}
	res.DeltaMicros = res.SteadyMicros - res.ColdMicros
	res.Table = Table{
		ID:      "E5",
		Title:   "Cold-start anomaly (120-byte messages)",
		Note:    "small numbers of exchanges run ~3µs faster than steady state (cache start-up transients)",
		Columns: []string{"regime", "latency(µs)"},
		Rows: [][]string{
			{"start-up (first exchanges, fresh caches)", fmt.Sprintf("%.2f", res.ColdMicros)},
			{"steady state (hundreds of exchanges)", fmt.Sprintf("%.2f", res.SteadyMicros)},
			{"steady-state penalty", fmt.Sprintf("+%.2f", res.DeltaMicros)},
		},
	}
	return res, nil
}

// E6Result is the bandwidth-utilization claim derived from the slope.
type E6Result struct {
	SlopeNSPerByte float64
	ImpliedMBs     float64
	Table          Table
}

// E6BandwidthSlope converts the measured E1 slope into interconnect
// bandwidth use, reproducing "increasing the FLIPC message size
// increases the use of interconnect bandwidth at over 150 MB/s ... on
// an interconnect whose hardware peak is 200 MB/s, and for which the
// best throughput achieved by any software is 160 MB/s".
func E6BandwidthSlope(seed int64) (*E6Result, error) {
	e1, err := E1Figure4(seed)
	if err != nil {
		return nil, err
	}
	res := &E6Result{SlopeNSPerByte: e1.Fit.Slope * 1000}
	if res.SlopeNSPerByte > 0 {
		res.ImpliedMBs = 1000 / res.SlopeNSPerByte
	}
	res.Table = Table{
		ID:      "E6",
		Title:   "Interconnect bandwidth implied by the latency slope",
		Note:    "6.25 ns/byte slope => >150 MB/s of the 200 MB/s hardware peak (best software: 160 MB/s)",
		Columns: []string{"quantity", "value"},
		Rows: [][]string{
			{"measured slope", fmt.Sprintf("%.2f ns/byte", res.SlopeNSPerByte)},
			{"implied bandwidth use", fmt.Sprintf("%.0f MB/s", res.ImpliedMBs)},
			{"hardware peak", "200 MB/s"},
			{"best software throughput", "160 MB/s"},
		},
	}
	return res, nil
}

// E7Result is the small-message comparison against PAM.
type E7Result struct {
	Sizes          []int
	PAMMicros      []float64
	FLIPCMicros    []float64
	CrossoverBytes int
	Table          Table
}

// E7SmallMessageCrossover reproduces "PAM's optimizations for small
// messages ... yield a message latency of less than 10µs, about a third
// faster than FLIPC would be on a 20 byte message" — and locates the
// payload size where FLIPC takes over, with the kernel-path systems
// (NX, SUNMOS) alongside for the full landscape.
func E7SmallMessageCrossover(seed int64) (*E7Result, error) {
	p := pam.New()
	nxs := nx.New()
	sun := sunmos.New()
	res := &E7Result{CrossoverBytes: -1}
	res.Table = Table{
		ID:      "E7",
		Title:   "Message latency vs payload: FLIPC against the field",
		Note:    "PAM <10µs at 20B, ~1/3 faster than FLIPC; FLIPC optimized for the 50-500B medium class",
		Columns: []string{"payload(B)", "FLIPC(µs)", "PAM(µs)", "SUNMOS(µs)", "NX(µs)", "winner"},
	}
	for _, payload := range []int{8, 16, 20, 32, 40, 56, 64, 88, 120, 240, 504} {
		// FLIPC's fixed message must cover payload+8, rounded to 32.
		msgSize := payload + 8
		if msgSize < 64 {
			msgSize = 64
		}
		if rem := msgSize % 32; rem != 0 {
			msgSize += 32 - rem
		}
		pp, err := RunPingPong(PingPongConfig{MessageSize: msgSize, Exchanges: 200, Seed: seed + int64(payload)})
		if err != nil {
			return nil, err
		}
		fl := stats.Mean(pp.Steady())
		pm := p.OneWayLatency(payload).Micros()
		res.Sizes = append(res.Sizes, payload)
		res.PAMMicros = append(res.PAMMicros, pm)
		res.FLIPCMicros = append(res.FLIPCMicros, fl)
		winner := "PAM"
		if fl < pm {
			winner = "FLIPC"
			if res.CrossoverBytes < 0 {
				res.CrossoverBytes = payload
			}
		}
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", payload),
			fmt.Sprintf("%.1f", fl),
			fmt.Sprintf("%.1f", pm),
			fmt.Sprintf("%.1f", sun.OneWayLatency(payload).Micros()),
			fmt.Sprintf("%.1f", nxs.OneWayLatency(payload).Micros()),
			winner,
		})
	}
	return res, nil
}

// E8Result is the large-message positioning table.
type E8Result struct {
	TransferBytes []int
	Table         Table
}

// E8LargeMessageThroughput reproduces the positioning claim: FLIPC is
// complementary to the bulk-oriented systems. A FLIPC deployment at its
// real-time message size moves bulk data poorly (per-message engine
// cost dominates); NX and SUNMOS stream at 140-160 MB/s.
func E8LargeMessageThroughput(seed int64) (*E8Result, error) {
	costs := Calibrated()
	systems := []baseline.System{nx.New(), pam.New(), sunmos.New()}
	res := &E8Result{}
	res.Table = Table{
		ID:      "E8",
		Title:   "Bulk-transfer throughput (MB/s): FLIPC fragmentation vs bulk systems",
		Note:    "NX >140 MB/s, SUNMOS ->160 MB/s on large messages; FLIPC has no bulk transport and is complementary",
		Columns: []string{"transfer", "FLIPC@64B", "FLIPC@512B", "NX", "PAM bulk", "SUNMOS"},
	}
	// FLIPC bulk model: pipeline of fixed-size messages; steady-state
	// rate bound by max(per-message engine cost, wire serialization),
	// plus one end-to-end latency of ramp-up.
	flipcBulk := func(msgSize, totalBytes int) float64 {
		payload := msgSize - 8
		msgs := (totalBytes + payload - 1) / payload
		perMsgEngine := costs.EngineSendPickup + costs.EngineRecvDeliver + costs.AppSend + costs.AppRecv
		wireSerial := costs.Mesh.RouteSetup/16 + // amortized routing
			sim.Time(float64(msgSize)*costs.Mesh.NSPerByte)
		slot := perMsgEngine
		if wireSerial > slot {
			slot = wireSerial
		}
		total := costs.WireTime(msgSize) + sim.Time(msgs)*slot
		return baseline.MBPerSecond(totalBytes, total)
	}
	for _, bytes := range []int{4096, 65536, 1 << 20, 4 << 20} {
		row := []string{humanBytes(bytes),
			fmt.Sprintf("%.0f", flipcBulk(64, bytes)),
			fmt.Sprintf("%.0f", flipcBulk(512, bytes)),
		}
		for _, s := range systems {
			row = append(row, fmt.Sprintf("%.0f", baseline.MBPerSecond(bytes, s.BulkTransferTime(bytes))))
		}
		// Column order: NX, PAM, SUNMOS matches systems slice order.
		res.Table.Rows = append(res.Table.Rows, row)
		res.TransferBytes = append(res.TransferBytes, bytes)
	}
	return res, nil
}

func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Experiment is one catalogued experiment: its ID, a one-line
// description, and a runner producing its table.
type Experiment struct {
	ID, What string
	Run      func(seed int64) (Table, error)
}

// Catalog lists every experiment in presentation order — the one
// table flipcbench's -list, -experiment and run-everything paths read.
var Catalog = []Experiment{
	{"E1", "Figure 4: latency vs message size", func(s int64) (Table, error) { return tableOf(E1Figure4(s)) }},
	{"E2", "120-byte latency across Paragon messaging systems", func(s int64) (Table, error) { return tableOf(E2Comparison(s)) }},
	{"E3", "validity-check overhead", func(s int64) (Table, error) { return tableOf(E3ValidityChecks(s)) }},
	{"E4", "cache-tuning ablation (locks + false sharing)", func(s int64) (Table, error) { return tableOf(E4CacheAblation(s)) }},
	{"E5", "cold-start anomaly", func(s int64) (Table, error) { return tableOf(E5ColdStart(s)) }},
	{"E6", "bandwidth implied by the slope", func(s int64) (Table, error) { return tableOf(E6BandwidthSlope(s)) }},
	{"E7", "small-message crossover vs PAM", func(s int64) (Table, error) { return tableOf(E7SmallMessageCrossover(s)) }},
	{"E8", "large-message throughput positioning", func(s int64) (Table, error) { return tableOf(E8LargeMessageThroughput(s)) }},
	{"E9", "drop semantics and layered flow control", func(s int64) (Table, error) { return tableOf(E9DropsAndFlowControl(s)) }},
	{"E10", "KKT development binding vs native engine", func(s int64) (Table, error) { return tableOf(E10KKTVsNative(s)) }},
	{"A1", "ablation: engine poll cadence", func(s int64) (Table, error) { return tableOf(A1PollInterval(s)) }},
	{"A2", "ablation: prioritized transport extension", func(s int64) (Table, error) { return tableOf(A2PriorityTransport(s)) }},
	{"A3", "ablation: receive window vs burst loss", func(s int64) (Table, error) { return tableOf(A3ReceiveWindow(s)) }},
}

// RunAll executes every experiment and prints its table.
func RunAll(w io.Writer, seed int64) error {
	for _, e := range Catalog {
		t, err := e.Run(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// tableOf extracts the Table field from any experiment result via the
// small interface below.
func tableOf(r interface{ table() Table }, err error) (Table, error) {
	if err != nil {
		return Table{}, err
	}
	return r.table(), nil
}

func (r *E1Result) table() Table  { return r.Table }
func (r *E2Result) table() Table  { return r.Table }
func (r *E3Result) table() Table  { return r.Table }
func (r *E4Result) table() Table  { return r.Table }
func (r *E5Result) table() Table  { return r.Table }
func (r *E6Result) table() Table  { return r.Table }
func (r *E7Result) table() Table  { return r.Table }
func (r *E8Result) table() Table  { return r.Table }
func (r *E9Result) table() Table  { return r.Table }
func (r *E10Result) table() Table { return r.Table }
