// Package stats provides the small statistics toolkit the experiment
// reports need: summary statistics, histograms and Gaussian kernel density
// estimates over per-FU utilization values (the probability density plots
// of Fig. 7 and Fig. 8), dispersion measures used by the ablation benches
// to compare movement patterns, and nearest-rank percentiles for the fleet
// service's lifetime distributions.
//
// Every function is a pure function of its input slice — inputs are never
// mutated (sorting copies first) — so results are deterministic and safe
// to compute concurrently over shared data.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics.
type Summary struct {
	N        int
	Mean     float64
	Min, Max float64
	StdDev   float64
	Median   float64
}

// Summarize computes a Summary over xs; zero value for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CoV returns the coefficient of variation (stddev/mean), the flatness
// metric used to compare allocation strategies; 0 for degenerate input.
func CoV(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// Gini returns the Gini coefficient of xs (0 = perfectly balanced
// utilization, 1 = maximally concentrated).
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += x * float64(2*(i+1)-n-1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// Percentile returns the p-th percentile of xs by the nearest-rank method:
// the smallest element with at least p% of the samples at or below it
// (index ceil(p/100*N)-1 of the ascending sort). Nearest-rank always
// returns an actual sample — no interpolation — so percentiles over death
// ages stay real, attributable device outcomes. p is clamped into
// [0, 100]: p <= 0 returns the minimum sample, p >= 100 the maximum.
// NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p > 100 {
		p = 100
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		// Tiny positive p: ceil(p/100*N) can still be 0; rank 1 applies.
		idx = 0
	}
	return sorted[idx]
}

// CountedPercentiles returns, for each p in ps, Percentile(expanded, p),
// where expanded holds counts[i] copies of xs[i]: the same nearest rank
// over the cumulative counts, in sort.Float64s order (NaN first, +Inf
// last). It sorts the distinct values once for all of ps, so its cost
// follows len(xs), not the expanded length. Entries with a non-positive
// count hold no sample. NaN for every p when no sample is held.
func CountedPercentiles(xs []float64, counts []int, ps []float64) []float64 {
	order := make([]int, 0, len(xs))
	n := 0
	for i, c := range counts {
		if c > 0 {
			order = append(order, i)
			n += c
		}
	}
	out := make([]float64, len(ps))
	if n == 0 {
		for k := range out {
			out[k] = math.NaN()
		}
		return out
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := xs[order[a]], xs[order[b]]
		return x < y || (math.IsNaN(x) && !math.IsNaN(y))
	})
	for k, p := range ps {
		idx := 0
		if p > 0 {
			// Percentile's rank: index ceil(p/100*N)-1, at least 0.
			idx = max(int(math.Ceil(min(p, 100)/100*float64(n)))-1, 0)
		}
		cum := 0
		for _, i := range order {
			out[k] = xs[i]
			if cum += counts[i]; cum > idx {
				break
			}
		}
	}
	return out
}

// HistogramBin is one bin of a histogram.
type HistogramBin struct {
	// Lo and Hi bound the bin: [Lo, Hi).
	Lo, Hi float64
	// Count is the number of samples in the bin.
	Count int
	// Frac is Count normalised by the total sample count.
	Frac float64
}

// Histogram bins xs into n equal-width bins over [lo, hi]; the last bin is
// closed. Samples outside the range are clamped into the edge bins.
func Histogram(xs []float64, n int, lo, hi float64) []HistogramBin {
	if n < 1 || hi <= lo {
		return nil
	}
	bins := make([]HistogramBin, n)
	w := (hi - lo) / float64(n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*w
		bins[i].Hi = bins[i].Lo + w
	}
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		bins[i].Count++
	}
	if len(xs) > 0 {
		for i := range bins {
			bins[i].Frac = float64(bins[i].Count) / float64(len(xs))
		}
	}
	return bins
}

// KDEPoint is one sample of a kernel density estimate.
type KDEPoint struct {
	X, Density float64
}

// KDE computes a Gaussian kernel density estimate of xs sampled at n
// evenly spaced points over [lo, hi]. A non-positive bandwidth selects
// Silverman's rule of thumb.
func KDE(xs []float64, n int, lo, hi, bandwidth float64) []KDEPoint {
	if len(xs) == 0 || n < 2 || hi <= lo {
		return nil
	}
	h := bandwidth
	if h <= 0 {
		s := Summarize(xs)
		h = 1.06 * s.StdDev * math.Pow(float64(len(xs)), -0.2)
		if h <= 0 {
			h = (hi - lo) / float64(n)
		}
	}
	out := make([]KDEPoint, n)
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		var d float64
		for _, xi := range xs {
			z := (x - xi) / h
			d += math.Exp(-0.5 * z * z)
		}
		out[i] = KDEPoint{X: x, Density: d * norm}
	}
	return out
}
