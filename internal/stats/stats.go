// Package stats provides the small statistical toolkit used by the
// FLIPC experiment harness: summary statistics, percentiles, and least
// squares line fitting (used to recover the paper's
// "15.45 µs + 6.25 ns/byte" latency fit from measured sweeps).
//
// All functions are pure and operate on float64 slices; they never
// mutate their arguments.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for samples with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns an error for an empty sample.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns an error for an empty sample.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns an error for
// an empty sample or an out of range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary bundles the usual descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns an error for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	p50, _ := Percentile(xs, 50)
	p95, _ := Percentile(xs, 95)
	p99, _ := Percentile(xs, 99)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    mn,
		Max:    mx,
		P50:    p50,
		P95:    p95,
		P99:    p99,
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Ewma is an exponentially weighted moving average — the streaming
// smoother used by long-running components (e.g. the TCP transport's
// per-peer outage tracking) where keeping every sample is not an
// option. The zero value is ready to use with the default smoothing
// factor.
type Ewma struct {
	// Alpha is the smoothing factor in (0, 1]; larger weights recent
	// samples more heavily. Zero selects the default (0.25).
	Alpha float64
	value float64
	n     uint64
}

// Observe folds one sample into the average. The first sample seeds
// the average directly.
func (e *Ewma) Observe(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		a := e.Alpha
		if a == 0 {
			a = 0.25
		}
		e.value = a*x + (1-a)*e.value
	}
	e.n++
}

// Value returns the current average (0 before any sample).
func (e *Ewma) Value() float64 { return e.value }

// Count returns the number of samples observed.
func (e *Ewma) Count() uint64 { return e.n }

// Fit is the result of an ordinary least squares line fit y = Intercept + Slope*x.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// LinearFit fits a least squares line through (xs[i], ys[i]).
// It returns an error if the slices differ in length, have fewer than
// two points, or if all x values are identical.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("stats: need at least two points to fit a line")
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: all x values identical; slope undefined")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	// R^2 = 1 - SS_res / SS_tot.
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// String renders the fit as "y = a + b*x (r2=...)".
func (f Fit) String() string {
	return fmt.Sprintf("y = %.4f + %.6f*x (r2=%.4f)", f.Intercept, f.Slope, f.R2)
}
