package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if s.Median != 2.5 {
		t.Errorf("median = %v", s.Median)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %v", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty input should give zero summary")
	}
}

func TestCoV(t *testing.T) {
	if CoV([]float64{2, 2, 2}) != 0 {
		t.Error("constant data must have zero CoV")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero mean must not divide by zero")
	}
	if CoV([]float64{1, 3}) <= 0 {
		t.Error("dispersed data must have positive CoV")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	// All mass on one element of n: gini = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 8}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("concentrated gini = %v, want 0.75", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate inputs must give 0")
	}
	// Permutation invariance.
	a := Gini([]float64{1, 5, 2, 9})
	b := Gini([]float64{9, 2, 5, 1})
	if math.Abs(a-b) > 1e-12 {
		t.Error("gini must be order-invariant")
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0.05, 0.15, 0.15, 0.95, 1.2, -0.5}, 10, 0, 1)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Count != 2 { // 0.05 and clamped -0.5
		t.Errorf("bin0 count = %d, want 2", bins[0].Count)
	}
	if bins[1].Count != 2 {
		t.Errorf("bin1 count = %d, want 2", bins[1].Count)
	}
	if bins[9].Count != 2 { // 0.95 and clamped 1.2
		t.Errorf("bin9 count = %d, want 2", bins[9].Count)
	}
	var total float64
	for _, b := range bins {
		total += b.Frac
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("fractions sum to %v", total)
	}
	if Histogram(nil, 0, 0, 1) != nil || Histogram(nil, 4, 1, 0) != nil {
		t.Error("degenerate histogram configs must return nil")
	}
}

// Property: histogram counts always total the sample count.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		bins := Histogram(xs, 8, 0, 1)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Gini is scale-invariant.
func TestGiniScaleInvariant(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1}
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] * 7.5
		}
		return math.Abs(Gini(xs)-Gini(ys)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{5, 15},   // ceil(0.05*5)=1 -> first sample
		{30, 20},  // ceil(1.5)=2
		{40, 20},  // ceil(2.0)=2
		{50, 35},  // ceil(2.5)=3
		{100, 50}, // always the max
		{150, 50}, // clamped to 100
		{0, 15},   // lower clamp: p = 0 is the minimum sample
		{-5, 15},  // lower clamp: negative p too
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty input should be NaN")
	}
	// Input must not be mutated (the fleet aggregator shares slices).
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", unsorted)
	}
	// A single sample is every percentile of itself.
	for _, p := range []float64{-1, 0, 50, 100, 200} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Errorf("Percentile([7], %v) = %v, want 7", p, got)
		}
	}
}

// TestCountedPercentilesMatchesExpanded checks CountedPercentiles against
// Percentile over the expanded samples: values with ties, NaN and +Inf
// (a fleet's survivors), zero counts, and ranks at both ends.
func TestCountedPercentilesMatchesExpanded(t *testing.T) {
	pool := []float64{math.Inf(1), math.NaN(), 0.5, 3, 3, 4.25, 7, math.Inf(-1)}
	ps := []float64{-1, 0, 0.001, 1, 25, 33.3, 50, 66.7, 90, 99, 99.9, 100, 150}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(6)
		xs := make([]float64, n)
		counts := make([]int, n)
		var expanded []float64
		for i := range xs {
			xs[i] = pool[rng.Intn(len(pool))]
			counts[i] = rng.Intn(4)
			if rng.Intn(4) == 0 {
				counts[i] = rng.Intn(300)
			}
			for c := 0; c < counts[i]; c++ {
				expanded = append(expanded, xs[i])
			}
		}
		trialPs := append(append([]float64(nil), ps...), 100*rng.Float64())
		got := CountedPercentiles(xs, counts, trialPs)
		for k, p := range trialPs {
			want := Percentile(expanded, p)
			if got[k] != want && !(math.IsNaN(got[k]) && math.IsNaN(want)) {
				t.Fatalf("xs %v counts %v p %v: got %v, want %v", xs, counts, p, got[k], want)
			}
		}
	}
}
