package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than
// two observations).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between order statistics. It panics on an empty
// slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval under the normal approximation (1.96 * stderr).
// The paper reports such margins for the Fig. 8a clustering-accuracy
// experiment.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	stderr := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, 1.96 * stderr
}

// EMA returns the exponential moving average of xs with smoothing factor
// alpha in (0, 1]; larger alpha tracks the raw series more closely.
// Used to render the "smoothed curve" style of the paper's Fig. 5.
func EMA(xs []float64, alpha float64) []float64 {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EMA alpha out of (0, 1]")
	}
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = alpha*xs[i] + (1-alpha)*out[i-1]
	}
	return out
}

// ArgMaxFloat returns the index of the largest element (first on ties).
// It panics on an empty slice.
func ArgMaxFloat(xs []float64) int {
	if len(xs) == 0 {
		panic("stats: ArgMaxFloat of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMinFloat returns the index of the smallest element (first on ties).
// It panics on an empty slice.
func ArgMinFloat(xs []float64) int {
	if len(xs) == 0 {
		panic("stats: ArgMinFloat of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// AllFinite reports whether no element of xs is NaN or ±Inf, in one
// branch-free pass: v*0 is ±0 for every finite v and NaN for NaN and
// ±Inf, and a NaN stays in a sum, so the sum is 0 exactly when every v
// is finite. Four accumulators keep the adds from waiting on each other.
func AllFinite(xs []float64) bool {
	var a0, a1, a2, a3 float64
	for ; len(xs) >= 4; xs = xs[4:] {
		q := xs[:4:4] // one bounds check for four loads
		a0 += q[0] * 0
		a1 += q[1] * 0
		a2 += q[2] * 0
		a3 += q[3] * 0
	}
	for _, v := range xs {
		a0 += v * 0
	}
	return a0+a1+a2+a3 == 0
}
