package main

import (
	"math"
	"syscall"

	"flipc/internal/stats"
)

// quantile returns the q-quantile (0..1) of xs, interpolating linearly
// between order statistics. NaN for an empty series.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Percentile(xs, 100*q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// quietDecile is the benchmark's timing estimator: the 10th percentile
// over per-batch means. Interference on a shared guest only ever adds
// time to a batch, so the lower decile tracks the program's own cost
// while the mean and the upper percentiles track the neighbours. Over
// eight runs in a noisy spell the decile repeated two to four times
// better than the quartile on every workload (README.md has the table).
func quietDecile(batches []float64) float64 { return quantile(batches, 0.10) }

// noisyShare is the share of batches that took more than twice the
// quiet decile: the generator-health figure printed with every report.
func noisyShare(batches []float64, quiet float64) float64 {
	if len(batches) == 0 {
		return 0
	}
	n := 0
	for _, b := range batches {
		if b > 2*quiet {
			n++
		}
	}
	return float64(n) / float64(len(batches))
}

// cpuNanos returns the process's user+system CPU time. It covers every
// thread, so work moved to (or spun on) the second core shows up here
// even when wall time per delivery does not move.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
