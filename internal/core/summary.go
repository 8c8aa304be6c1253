// Package core implements HACCS, the paper's contribution: privacy-
// preserving distribution summaries computed on clients, Hellinger-
// distance clustering of those summaries on the server, and the
// cluster-level scheduling policy that samples clusters by a convex
// combination of latency reduction and average loss, then picks the
// fastest available device within each sampled cluster.
package core

import (
	"fmt"
	"math"

	"haccs/internal/cluster"
	"haccs/internal/dataset"
	"haccs/internal/sketch"
	"haccs/internal/stats"
)

// SummaryKind selects which part of the factored joint distribution
// P(X, y) = P(y) · P(X|y) a client summarizes (paper eq. 2).
type SummaryKind int

const (
	// PY summarizes the marginal label distribution P(y) as a single
	// histogram over class labels — compact (Θ(c) bytes) and the least
	// privacy-sensitive choice.
	PY SummaryKind = iota
	// PXY summarizes the class-conditional feature distribution P(X|y)
	// as one feature-value histogram per class label present on the
	// device — Θ(c·p) bytes for p bins.
	PXY
)

// String implements fmt.Stringer.
func (k SummaryKind) String() string {
	switch k {
	case PY:
		return "P(y)"
	case PXY:
		return "P(X|y)"
	default:
		return fmt.Sprintf("SummaryKind(%d)", int(k))
	}
}

// Summary is a client's privacy-preserving data summary S(Z_i). Exactly
// one of Label (PY) or Feature (PXY) is populated.
type Summary struct {
	Kind SummaryKind
	// Label is the class-label histogram for PY summaries.
	Label *stats.Histogram
	// Feature holds one per-class feature histogram for PXY summaries;
	// entries for classes absent from the device are nil.
	Feature []*stats.Histogram
}

// DefaultFeatureBins is the per-class histogram resolution for PXY
// summaries.
const DefaultFeatureBins = 32

// Summarize computes S(Z) on a client's local dataset. bins is only used
// for PXY (pass 0 for the default).
func Summarize(d *dataset.Dataset, kind SummaryKind, bins int) Summary {
	switch kind {
	case PY:
		return Summary{Kind: PY, Label: d.LabelHistogram()}
	case PXY:
		if bins <= 0 {
			bins = DefaultFeatureBins
		}
		return Summary{Kind: PXY, Feature: d.FeatureHistograms(bins)}
	default:
		panic(fmt.Sprintf("core: unknown summary kind %d", int(kind)))
	}
}

// Noised returns a copy of the summary with Laplace-mechanism noise
// applied per histogram bin, making the release (eps, 0)-differentially
// private (paper §IV-B). eps <= 0 returns the summary unchanged (no
// privacy requested).
func (s Summary) Noised(eps float64, rng *stats.RNG) Summary {
	if eps <= 0 {
		return s
	}
	out := Summary{Kind: s.Kind}
	if s.Label != nil {
		out.Label = stats.LaplaceMechanism(s.Label, eps, rng)
	}
	if s.Feature != nil {
		out.Feature = make([]*stats.Histogram, len(s.Feature))
		for i, h := range s.Feature {
			if h != nil {
				out.Feature[i] = stats.LaplaceMechanism(h, eps, rng)
			}
		}
	}
	return out
}

// Bytes returns the simulated wire size of the summary (8 bytes per
// histogram bin), confirming the paper's Θ(c) vs Θ(c·p) comparison.
func (s Summary) Bytes() int {
	n := 0
	if s.Label != nil {
		n += 8 * s.Label.Bins()
	}
	for _, h := range s.Feature {
		if h != nil {
			n += 8 * h.Bins()
		}
	}
	return n
}

// Distance is the paper's d(S(Z_a), S(Z_b)): the Hellinger distance for
// PY summaries and the average per-class Hellinger distance for PXY
// summaries (eq. 3). Both summaries must have the same kind.
//
// For PXY the per-class terms are weighted by the class's prevalence on
// the two clients (the histograms' mass), a refinement over the paper's
// plain average: an unweighted mean is blind to class proportions, so
// two clients holding the same class *set* in wildly different ratios
// would measure as identical. Prevalence weighting keeps the summary
// sensitive to both conditional feature differences (e.g. rotation) and
// the composition of the local data. Classes present on only one side
// contribute the maximal distance 1 at that side's weight.
func Distance(a, b Summary) float64 {
	if a.Kind != b.Kind {
		panic("core: Distance across summary kinds")
	}
	switch a.Kind {
	case PY:
		return stats.HistogramHellinger(a.Label, b.Label)
	case PXY:
		return weightedAverageHellinger(a.Feature, b.Feature)
	default:
		panic("core: Distance on malformed summary")
	}
}

// weightedAverageHellinger computes the prevalence-weighted mean
// Hellinger distance across two parallel per-class histogram sets.
// Noised histograms can carry negative mass; weights clamp at zero.
func weightedAverageHellinger(a, b []*stats.Histogram) float64 {
	if len(a) != len(b) {
		panic("core: PXY summaries with different class counts")
	}
	num, den := 0.0, 0.0
	for c := range a {
		wa, wb := 0.0, 0.0
		if a[c] != nil {
			wa = math.Max(0, a[c].Total())
		}
		if b[c] != nil {
			wb = math.Max(0, b[c].Total())
		}
		w := wa + wb
		if w <= 0 {
			continue
		}
		d := 1.0
		if a[c] != nil && b[c] != nil {
			d = stats.HistogramHellinger(a[c], b[c])
		}
		num += w * d
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// encoder writes summaries as the flat vectors every distance in the
// clustering step reads: the dense matrix, the sketch index and its
// representative clustering alike. Each summary is one block per class
// (P(y) has one) holding the amplitude √p of its histogram, followed,
// for P(X|y), by one clamped mass entry per class (−1 marks a class
// absent from the device). With a sketcher each amplitude is sketched
// into its block; without one (the dense matrix) the block is the
// amplitude itself, so distance reproduces Distance bit for bit.
type encoder struct {
	kind     SummaryKind
	sketcher *sketch.Sketcher // nil: blocks are the amplitudes themselves
	classes  int              // P(X|y): class count
	block    int              // block width
	width    int              // encoded vector width: block, or classes·(block+1)
	amp      []float64        // one amplitude (histogram width); scratch when sketching
}

// newEncoder sizes an encoder for the population's summary shape. A nil
// sketch selects the exact encoding; otherwise its Dim and Seed drive
// the sketcher. P(X|y)'s block defaults to the histogram resolution
// itself when that is no wider than a full sketch, so its blocks embed
// exactly and only wider feature histograms compress into Dim-wide
// blocks.
func newEncoder(summaries []Summary, sk *SketchOptions) *encoder {
	e := &encoder{kind: summaries[0].Kind}
	bins := 0
	if e.kind == PY {
		bins = summaries[0].Label.Bins()
	} else {
		e.classes = len(summaries[0].Feature)
		bins = featureBins(summaries)
	}
	e.amp, e.block = make([]float64, bins), bins
	if sk != nil {
		dim := sk.Dim
		if e.kind == PXY && dim <= 0 && bins <= sketch.DefaultDim {
			dim = bins
		}
		e.sketcher = sketch.New(sketch.Config{Dim: dim, Seed: sk.Seed})
		e.block = e.sketcher.Dim()
	}
	e.width = e.block
	if e.kind == PXY {
		e.width = e.classes * (e.block + 1)
	}
	return e
}

// featureBins returns the per-class histogram resolution shared by the
// population's P(X|y) summaries.
func featureBins(summaries []Summary) int {
	for _, s := range summaries {
		for _, h := range s.Feature {
			if h != nil {
				return h.Bins()
			}
		}
	}
	return DefaultFeatureBins
}

// encodeInto writes the summary's encoded vector into dst (width
// e.width). It allocates nothing, and panics on a summary whose kind,
// class count or histogram width differs from the population's.
func (e *encoder) encodeInto(dst []float64, s Summary) {
	if s.Kind != e.kind {
		panic("core: summary kind mismatch with the population")
	}
	if e.kind == PY {
		e.blockInto(dst, s.Label)
		return
	}
	if len(s.Feature) != e.classes {
		panic("core: PXY summaries with different class counts")
	}
	mass := dst[e.classes*e.block:]
	for c, h := range s.Feature {
		block := dst[c*e.block : (c+1)*e.block]
		if h == nil {
			clear(block)
			mass[c] = -1
			continue
		}
		mass[c] = math.Max(0, h.Total())
		e.blockInto(block, h)
	}
}

// blockInto writes one histogram's amplitude, sketched when the encoder
// sketches, into block.
func (e *encoder) blockInto(block []float64, h *stats.Histogram) {
	if len(h.Counts) != len(e.amp) {
		panic(fmt.Sprintf("core: histogram of %d bins in a population of %d", len(h.Counts), len(e.amp)))
	}
	if e.sketcher == nil {
		stats.AmplitudeInto(block, h.Counts)
		return
	}
	stats.AmplitudeInto(e.amp, h.Counts)
	e.sketcher.SketchInto(block, e.amp)
}

// metric is the distance over encoded vectors: nil for P(y), where the
// sketch index's Euclidean/√2 default and the dense matrix's
// stats.AmplitudeDistance run the same arithmetic, and pxyMetric for
// P(X|y).
func (e *encoder) metric() sketch.Metric {
	if e.kind == PY {
		return nil
	}
	return pxyMetric{classes: e.classes, blockDim: e.block}
}

// pxyMetric computes, over two encoded P(X|y) vectors, Distance's
// prevalence-weighted average (see weightedAverageHellinger), in the
// same float64 operations: per-class Hellinger distances weighted by
// the classes' clamped mass on the two clients, a class present on only
// one side contributing the maximal distance 1. An absent class's mass
// of −1 clamps to weight 0. A flat joint embedding cannot express this
// metric (the weights depend on both endpoints), which is why the
// encoding keeps the per-class structure.
type pxyMetric struct {
	classes  int
	blockDim int
}

// Distance implements sketch.Metric without allocating.
func (m pxyMetric) Distance(a, b []float64) float64 {
	massA := a[m.classes*m.blockDim:]
	massB := b[m.classes*m.blockDim:]
	num, den := 0.0, 0.0
	for c := 0; c < m.classes; c++ {
		wa, wb := math.Max(0, massA[c]), math.Max(0, massB[c])
		w := wa + wb
		if w <= 0 {
			continue
		}
		d := 1.0
		if massA[c] >= 0 && massB[c] >= 0 {
			d = stats.AmplitudeDistance(a[c*m.blockDim:(c+1)*m.blockDim], b[c*m.blockDim:(c+1)*m.blockDim])
		}
		num += w * d
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// DistanceMatrix computes all pairwise summary distances — the server's
// first step before clustering (Algorithm 1's distMatrix). Each summary
// is encoded once, exactly (no sketcher), and the encoding is shared
// across all N−1 pairs it appears in; the pair loop itself is banded
// across workers by cluster.FromFunc's strided rows. Every entry equals
// Distance of the two summaries bit for bit.
func DistanceMatrix(summaries []Summary) *cluster.Matrix {
	e := newEncoder(summaries, nil)
	dist := stats.AmplitudeDistance
	if m := e.metric(); m != nil {
		dist = m.Distance
	}
	w := e.width
	vecs := make([]float64, len(summaries)*w)
	for i, s := range summaries {
		e.encodeInto(vecs[i*w:(i+1)*w], s)
	}
	return cluster.FromFunc(len(summaries), func(i, j int) float64 {
		return dist(vecs[i*w:(i+1)*w], vecs[j*w:(j+1)*w])
	})
}

// BuildSummaries computes each client dataset's summary, applying
// (eps, 0)-differential privacy when eps > 0. The noise stream is drawn
// per client from the provided RNG.
func BuildSummaries(trainSets []*dataset.Dataset, kind SummaryKind, bins int, eps float64, rng *stats.RNG) []Summary {
	out := make([]Summary, len(trainSets))
	for i, d := range trainSets {
		out[i] = Summarize(d, kind, bins).Noised(eps, rng)
	}
	return out
}
