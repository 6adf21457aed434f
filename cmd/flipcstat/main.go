// Command flipcstat profiles the communication buffer's cache-coherency
// behaviour: it runs message exchanges through the real implementation
// with the two-cache model attached and reports the per-exchange
// coherency events for each interface/layout configuration — the data
// behind the paper's tuning story (§Implementation) in raw form.
//
// Usage:
//
//	flipcstat                  # all four configurations, 64-byte messages
//	flipcstat -msgsize 256 -exchanges 100
//	flipcstat -watch host:port # live metrics from a flipcd -http endpoint
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flipc/internal/cachesim"
	"flipc/internal/experiments"
	"flipc/internal/stats"
)

func main() {
	var (
		msgSize   = flag.Int("msgsize", 64, "fixed message size")
		exchanges = flag.Int("exchanges", 50, "two-way exchanges per configuration")
		seed      = flag.Int64("seed", 1996, "jitter seed")
		lines     = flag.Int("lines", 0, "also print the N hottest cache lines per node")
		watch     = flag.String("watch", "", "poll a flipcd observability endpoint (host:port or URL) and render live metrics")
		interval  = flag.Duration("interval", time.Second, "poll interval for -watch")
		samples   = flag.Int("count", 0, "number of -watch refreshes (0 = until interrupted)")
	)
	flag.Parse()

	if *watch != "" {
		watchLoop(*watch, *interval, *samples)
		return
	}

	fmt.Printf("flipcstat: %d exchanges, %d-byte messages (coherency events per two-way exchange)\n\n",
		*exchanges, *msgSize)
	fmt.Printf("%-34s %7s %7s %7s %7s %9s %11s\n",
		"configuration", "rmiss", "wmiss", "inval", "xfer", "buslock", "latency(µs)")
	for _, cfg := range []struct {
		name     string
		locked   bool
		unpadded bool
	}{
		{"tuned (lock-free, line-isolated)", false, false},
		{"test-and-set locks", true, false},
		{"false-sharing layout", false, true},
		{"untuned (locks + false sharing)", true, true},
	} {
		res, err := experiments.RunPingPong(experiments.PingPongConfig{
			MessageSize: *msgSize,
			Exchanges:   *exchanges,
			Locked:      cfg.locked,
			Unpadded:    cfg.unpadded,
			Seed:        *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipcstat: %s: %v\n", cfg.name, err)
			os.Exit(1)
		}
		// Steady-state exchange profile (skip the cache-cold first one).
		var sum cachesim.Counts
		n := 0
		for i, d := range res.Exchange {
			if i == 0 {
				continue
			}
			sum = addCounts(sum, d)
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-34s %7.1f %7.1f %7.1f %7.1f %9.1f %11.2f\n",
			cfg.name,
			float64(sum.ReadMisses.Total())/float64(n),
			float64(sum.WriteMisses.Total())/float64(n),
			float64(sum.Invalidations.Total())/float64(n),
			float64(sum.Transfers.Total())/float64(n),
			float64(sum.BusLocks.Total())/float64(n),
			stats.Mean(res.Steady()))
	}
	fmt.Println("\ncold (first) exchange vs steady state, tuned configuration:")
	res, err := experiments.RunPingPong(experiments.PingPongConfig{
		MessageSize: *msgSize, Exchanges: *exchanges, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "flipcstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  cold:   %v\n", res.Exchange[0])
	fmt.Printf("  steady: %v\n", res.Exchange[len(res.Exchange)-1])

	if *lines > 0 {
		fmt.Printf("\nhottest cache lines (tuned configuration):\n")
		for name, model := range map[string]*cachesim.Model{"node 0": res.ModelA, "node 1": res.ModelB} {
			fmt.Printf("  %s:\n", name)
			for _, lr := range model.HottestLines(*lines) {
				fmt.Printf("    line %4d (words %d..%d): %5d invalidations, %5d transfers\n",
					lr.Line, lr.FirstWord, lr.FirstWord+3, lr.Invalidations, lr.Transfers)
			}
		}
	}
}

func addCounts(a, b cachesim.Counts) cachesim.Counts {
	add := func(x, y cachesim.PerProc) cachesim.PerProc {
		var r cachesim.PerProc
		for i := range x {
			r[i] = x[i] + y[i]
		}
		return r
	}
	return cachesim.Counts{
		Loads:         add(a.Loads, b.Loads),
		Stores:        add(a.Stores, b.Stores),
		ReadMisses:    add(a.ReadMisses, b.ReadMisses),
		WriteMisses:   add(a.WriteMisses, b.WriteMisses),
		Invalidations: add(a.Invalidations, b.Invalidations),
		Transfers:     add(a.Transfers, b.Transfers),
		BusLocks:      add(a.BusLocks, b.BusLocks),
	}
}
