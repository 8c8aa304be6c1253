package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width histogram over either discrete class labels
// (one bin per label, used for the P(y) summary) or a bounded continuous
// range (used for the per-label feature histograms of the P(X|y) summary).
//
// Counts are stored as float64 so that Laplace noise can be added in place
// by the differential-privacy mechanism; a noised histogram may therefore
// contain negative "counts", which Normalize clamps.
type Histogram struct {
	// Counts holds the per-bin mass. For a label histogram, bin i is the
	// count of label i. For a feature histogram, bin i covers
	// [Lo + i*w, Lo + (i+1)*w) with w = (Hi-Lo)/len(Counts).
	Counts []float64
	// Lo and Hi bound the continuous range for feature histograms.
	// They are ignored (zero) for label histograms.
	Lo, Hi float64
}

// NewLabelHistogram returns an empty histogram with one bin per class.
func NewLabelHistogram(numClasses int) *Histogram {
	if numClasses <= 0 {
		panic("stats: NewLabelHistogram with non-positive class count")
	}
	return &Histogram{Counts: make([]float64, numClasses)}
}

// NewRangeHistogram returns an empty histogram with bins equal-width bins
// over [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewRangeHistogram(bins int, lo, hi float64) *Histogram {
	if bins <= 0 {
		panic("stats: NewRangeHistogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: NewRangeHistogram with empty range")
	}
	return &Histogram{Counts: make([]float64, bins), Lo: lo, Hi: hi}
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// AddLabel increments the bin for a discrete label. Out-of-range labels
// panic: they indicate a dataset/model class-count mismatch.
func (h *Histogram) AddLabel(label int) {
	h.Counts[label]++
}

// AddValue bins a continuous value. Values outside [Lo, Hi) are clamped
// into the first or last bin; feature ranges are nominal bounds and raw
// pixel noise may slightly exceed them.
func (h *Histogram) AddValue(v float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	i := int(math.Floor((v - h.Lo) / w))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the sum of all bin masses (negative bins contribute
// negatively; call after Clamp if that matters).
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Clamp zeroes any negative bins (which appear after Laplace noising).
func (h *Histogram) Clamp() {
	for i, c := range h.Counts {
		if c < 0 {
			h.Counts[i] = 0
		}
	}
}

// Normalize returns the histogram as a probability vector: non-negative
// entries summing to 1. Negative bins are clamped to zero first. If the
// histogram is entirely empty (or all-negative), a uniform distribution is
// returned so that downstream distance computations remain well defined.
func (h *Histogram) Normalize() []float64 {
	p := make([]float64, len(h.Counts))
	total := 0.0
	for i, c := range h.Counts {
		if c > 0 {
			p[i] = c
			total += c
		}
	}
	if total <= 0 {
		u := 1.0 / float64(len(p))
		for i := range p {
			p[i] = u
		}
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// AmplitudeInto writes the Hellinger embedding of counts into dst
// without allocating: √ of Normalize over the counts padded with zeros
// to len(dst), bit for bit — √(c/total) over the positive part of
// counts, and the uniform √(1/len(dst)) when no count is positive.
// Amplitude vectors have unit L2 norm (√p · √p = Σp = 1), so the
// Hellinger distance between two histograms is exactly
// AmplitudeDistance of their amplitudes; computing each amplitude once
// removes the per-pair normalize+sqrt work from a dense distance-matrix
// build.
func AmplitudeInto(dst, counts []float64) {
	total := 0.0
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total <= 0 {
		u := math.Sqrt(1 / float64(len(dst)))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	// Sparse histograms are the common case: a bin without mass skips
	// the divide and square root (√(0/total) is +0 anyway).
	n := min(len(counts), len(dst))
	for i, c := range counts[:n] {
		if c > 0 {
			dst[i] = math.Sqrt(c / total)
		} else {
			dst[i] = 0
		}
	}
	clear(dst[n:])
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{Counts: make([]float64, len(h.Counts)), Lo: h.Lo, Hi: h.Hi}
	copy(c.Counts, h.Counts)
	return c
}

// String renders a compact representation, useful in logs and tests.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram{bins=%d total=%.1f}", len(h.Counts), h.Total())
}

// Hellinger computes the Hellinger distance between two probability
// vectors p and q:
//
//	H(p, q) = (1/sqrt(2)) * || sqrt(p) - sqrt(q) ||_2
//
// It is the paper's distance function d for comparing distribution
// summaries (eq. 3): bounded in [0, 1], symmetric, and tolerant of zero
// entries. The inputs must already be normalized and of equal length.
func Hellinger(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: Hellinger on vectors of different lengths")
	}
	sum := 0.0
	for i := range p {
		d := math.Sqrt(math.Max(p[i], 0)) - math.Sqrt(math.Max(q[i], 0))
		sum += d * d
	}
	h := math.Sqrt(sum) / math.Sqrt2
	// Guard against floating-point overshoot past the theoretical bound.
	if h > 1 {
		h = 1
	}
	return h
}

// HistogramHellinger normalizes both histograms and returns their
// Hellinger distance.
func HistogramHellinger(a, b *Histogram) float64 {
	return Hellinger(a.Normalize(), b.Normalize())
}

// AmplitudeDistance computes the Hellinger distance from two precomputed
// amplitude vectors (see AmplitudeInto):
//
//	H(p, q) = (1/sqrt(2)) * || sqrt(p) - sqrt(q) ||_2
//
// It performs the identical float64 operations as Hellinger on the
// underlying probability vectors — same subtraction, same accumulation
// order, same clamp — so swapping a per-pair Hellinger call for a
// precomputed-amplitude AmplitudeDistance call is bit-exact, not merely
// approximate. It also serves as the distance between equal-width
// sketches, which are linear images of amplitude vectors.
func AmplitudeDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: AmplitudeDistance on vectors of different lengths")
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	h := math.Sqrt(sum) / math.Sqrt2
	if h > 1 {
		h = 1
	}
	return h
}

// AverageHellinger computes the mean Hellinger distance across two
// parallel sets of histograms — the paper's distance for the P(X|y)
// summary, where each client sends one feature histogram per class label.
// The sets must have equal length; pairs where either histogram is nil are
// compared as uniform-vs-uniform only when both are nil (distance 0);
// when exactly one side is missing the label entirely, the distance for
// that pair is the maximum 1, reflecting total disagreement about that
// class-conditional distribution.
func AverageHellinger(a, b []*Histogram) float64 {
	if len(a) != len(b) {
		panic("stats: AverageHellinger on sets of different lengths")
	}
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for i := range a {
		switch {
		case a[i] == nil && b[i] == nil:
			// Neither client has the label: no evidence of disagreement.
		case a[i] == nil || b[i] == nil:
			sum += 1
		default:
			sum += HistogramHellinger(a[i], b[i])
		}
	}
	return sum / float64(len(a))
}
