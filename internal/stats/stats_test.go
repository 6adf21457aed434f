package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceSingleton(t *testing.T) {
	if got := Variance([]float64{42}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestStdDevKnown(t *testing.T) {
	// Sample {2,4,4,4,5,5,7,9}: mean 5, sum sq dev 32, n-1=7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tc.p, err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("p=-1 accepted")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("p=101 accepted")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v", err)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 15.45 + 0.00625x, the paper's Figure 4 fit in µs/bytes.
	xs := []float64{96, 128, 160, 256, 512}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 15.45 + 0.00625*x
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 0.00625, 1e-9) {
		t.Errorf("slope = %v, want 0.00625", f.Slope)
	}
	if !almostEqual(f.Intercept, 15.45, 1e-9) {
		t.Errorf("intercept = %v, want 15.45", f.Intercept)
	}
	if !almostEqual(f.R2, 1, 1e-9) {
		t.Errorf("r2 = %v, want 1", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("vertical line accepted")
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 3+2*x+rng.NormFloat64()*0.1)
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 2, 0.01) || !almostEqual(f.Intercept, 3, 0.5) {
		t.Fatalf("fit = %+v", f)
	}
	if f.R2 < 0.999 {
		t.Fatalf("r2 = %v too low", f.R2)
	}
}

// Property: mean is translation equivariant and bounded by min/max.
func TestQuickMeanProperties(t *testing.T) {
	prop := func(raw []int16, shiftRaw int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		m := Mean(xs)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		if m < mn-1e-9 || m > mx+1e-9 {
			return false
		}
		return almostEqual(Mean(shifted), m+shift, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: StdDev is invariant under translation and non-negative.
func TestQuickStdDevTranslationInvariant(t *testing.T) {
	prop := func(raw []int16, shiftRaw int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			shifted[i] = float64(v) + float64(shiftRaw)
		}
		sd := StdDev(xs)
		if sd < 0 {
			return false
		}
		return almostEqual(StdDev(shifted), sd, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a fit through points that are exactly linear recovers them.
func TestQuickLinearFitRecovers(t *testing.T) {
	prop := func(a, b int8, n uint8) bool {
		pts := int(n%20) + 2
		xs := make([]float64, pts)
		ys := make([]float64, pts)
		for i := 0; i < pts; i++ {
			xs[i] = float64(i)
			ys[i] = float64(a) + float64(b)*float64(i)
		}
		f, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(f.Slope, float64(b), 1e-6) && almostEqual(f.Intercept, float64(a), 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitString(t *testing.T) {
	f := Fit{Slope: 0.00625, Intercept: 15.45, R2: 0.999}
	if f.String() == "" {
		t.Fatal("empty fit string")
	}
}

func TestEwma(t *testing.T) {
	var e Ewma
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	e.Observe(100) // first sample seeds directly
	if e.Value() != 100 || e.Count() != 1 {
		t.Fatalf("after seed: %v, %d", e.Value(), e.Count())
	}
	e.Observe(0) // default alpha 0.25: 0.25*0 + 0.75*100
	if got := e.Value(); math.Abs(got-75) > 1e-9 {
		t.Fatalf("value = %v, want 75", got)
	}
	sharp := Ewma{Alpha: 1}
	sharp.Observe(10)
	sharp.Observe(50)
	if sharp.Value() != 50 {
		t.Fatalf("alpha=1 should track the last sample, got %v", sharp.Value())
	}
}
