package core

import (
	"math"

	"haccs/internal/fl"
	"haccs/internal/stats"
)

// synthRoster is the generator behind the cluster-state tests,
// BenchmarkSelectRound and BenchmarkSketchInit100k: clients in label
// groups with jittered, non-integer summaries (so the fixed-point sums
// are exercised off the integer grid), built without the dataset
// generator so a 20 000-client roster costs milliseconds.
type synthRoster struct {
	kind    SummaryKind
	bins    int // P(y): label bins; P(X|y): classes
	perBin  int // P(X|y): bins per class histogram
	groupOf []int
	rng     *stats.RNG
}

// draw returns a fresh summary for a member of the given label group:
// 75/12/7/6 % of ~2000 samples on the group's four labels, Gaussian
// jitter everywhere (bins off the mix jitter around zero, so some go
// negative and must clamp). For P(X|y) the same four classes are
// present, each with a group-dependent feature histogram.
func (r *synthRoster) draw(group int) Summary {
	if r.kind == PY {
		h := stats.NewLabelHistogram(r.bins)
		for b := range h.Counts {
			h.Counts[b] = r.rng.Normal(0, 0.4)
		}
		for i, f := range []float64{0.75, 0.12, 0.07, 0.06} {
			m := f * 2000
			h.Counts[(group+i)%r.bins] = m + r.rng.Normal(0, math.Sqrt(m*(1-f)))
		}
		return Summary{Kind: PY, Label: h}
	}
	feat := make([]*stats.Histogram, r.bins)
	for i, f := range []float64{0.75, 0.12, 0.07, 0.06} {
		h := stats.NewRangeHistogram(r.perBin, 0, 1)
		for b := range h.Counts {
			h.Counts[b] = r.rng.Normal(0, 0.4)
		}
		m := f * 2000
		h.Counts[(group+2*i)%r.perBin] += m + r.rng.Normal(0, math.Sqrt(m*(1-f)))
		feat[(group+i)%r.bins] = h
	}
	return Summary{Kind: PXY, Feature: feat}
}

// newSynthRoster deals n clients round-robin into groups and draws
// their summaries and a latency ladder with ties (latency = 1 + id%7).
func newSynthRoster(kind SummaryKind, n, groups int, seed uint64) (*synthRoster, []Summary, []fl.ClientInfo) {
	r := &synthRoster{kind: kind, bins: 16, perBin: 8, groupOf: make([]int, n), rng: stats.NewRNG(seed)}
	sums := make([]Summary, n)
	infos := make([]fl.ClientInfo, n)
	for id := range sums {
		r.groupOf[id] = id % groups
		sums[id] = r.draw(r.groupOf[id])
		infos[id] = fl.ClientInfo{ID: id, Latency: float64(1 + id%7), NumSamples: 2000}
	}
	return r, sums, infos
}
