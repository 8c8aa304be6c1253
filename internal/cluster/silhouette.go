package cluster

import (
	"math"
	"sort"
)

// Silhouette returns the mean silhouette coefficient of a labeling over
// the distance matrix. For a point i in cluster C with |C| > 1,
// a(i) is its mean distance to the rest of C, b(i) the smallest mean
// distance to any other cluster, and s(i) = (b-a)/max(a,b). Points in
// singleton clusters (including Noise points, which are treated as
// singletons) contribute 0. A labeling with fewer than two clusters has
// no separation structure to score and returns 0.
func Silhouette(m *Matrix, labels []int) float64 {
	if len(labels) != m.Len() {
		panic("cluster: Silhouette label/matrix size mismatch")
	}
	// Materialize clusters, treating each noise point as its own
	// singleton so it penalizes (0-contributes) rather than distorts.
	// The groups are walked in ascending label order, noise singletons
	// last, so the sum's rounding does not follow map order.
	groups := map[int][]int{}
	var noise [][]int
	for i, l := range labels {
		if l == Noise {
			noise = append(noise, []int{i})
			continue
		}
		groups[l] = append(groups[l], i)
	}
	ids := make([]int, 0, len(groups))
	for l := range groups {
		ids = append(ids, l)
	}
	sort.Ints(ids)
	ordered := make([][]int, len(ids), len(ids)+len(noise))
	for k, l := range ids {
		ordered[k] = groups[l]
	}
	ordered = append(ordered, noise...)
	if len(ordered) < 2 {
		return 0
	}
	total := 0.0
	for gi, members := range ordered {
		for _, i := range members {
			if len(members) < 2 {
				continue // singleton: s = 0
			}
			a := 0.0
			for _, j := range members {
				if j != i {
					a += m.At(i, j)
				}
			}
			a /= float64(len(members) - 1)
			b := math.Inf(1)
			for gj, other := range ordered {
				if gj == gi {
					continue
				}
				d := 0.0
				for _, j := range other {
					d += m.At(i, j)
				}
				d /= float64(len(other))
				if d < b {
					b = d
				}
			}
			denom := math.Max(a, b)
			if denom > 0 {
				total += (b - a) / denom
			}
		}
	}
	return total / float64(m.Len())
}

// DefaultMinSilhouette is the structure threshold below which
// ExtractBestSilhouette declares the data unclustered and returns a
// single cluster; near-IID summaries score near zero while genuine
// distribution groups score well above it.
const DefaultMinSilhouette = 0.25

// ExtractBestSilhouette chooses the reachability-plot cut
// data-adaptively: it sweeps candidate thresholds (midpoints between
// consecutive distinct finite reachability values), extracts the DBSCAN
// clustering at each, scores it with the mean silhouette over the
// original distance matrix, and returns the best-scoring labeling. When
// no cut scores at least minScore (pass 0 for DefaultMinSilhouette), the
// plot is treated as structureless and all density-connected points
// collapse into one cluster.
//
// This replaces the single-gap heuristic for realistic summaries, where
// within-group distances (same majority label, disjoint noise labels)
// can run up to ~0.5 and overlap the spacing pattern of cross-group
// jumps; scoring actual extractions is robust where a gap test is not.
func (r *OPTICSResult) ExtractBestSilhouette(m *Matrix, minScore float64) []int {
	if minScore <= 0 {
		minScore = DefaultMinSilhouette
	}
	finite := make([]float64, 0, len(r.Reach))
	for _, v := range r.Reach {
		if !math.IsInf(v, 1) {
			finite = append(finite, v)
		}
	}
	single := func() []int {
		if len(finite) == 0 {
			return r.ExtractDBSCAN(math.Inf(1))
		}
		return r.ExtractDBSCAN(finite[len(finite)-1] + 1)
	}
	if len(finite) < 2 {
		return single()
	}
	sort.Float64s(finite)
	// Deduplicate and form candidate cuts at midpoints.
	uniq := finite[:1]
	for _, v := range finite[1:] {
		if v > uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	bestScore := math.Inf(-1)
	var bestLabels []int
	for i := 0; i+1 < len(uniq); i++ {
		cut := (uniq[i] + uniq[i+1]) / 2
		labels := r.ExtractDBSCAN(cut)
		// A candidate labeling carries structure if it separates at
		// least two dense clusters, or one dense cluster plus noise
		// points (outliers are structure too — the scheduler treats
		// them as singleton distributions).
		if NumClusters(labels) < 2 && !hasNoise(labels) {
			continue
		}
		score := Silhouette(m, labels)
		if score > bestScore {
			bestScore = score
			bestLabels = labels
		}
	}
	if bestLabels == nil || bestScore < minScore {
		return single()
	}
	return bestLabels
}

// hasNoise reports whether any point is labeled Noise.
func hasNoise(labels []int) bool {
	for _, l := range labels {
		if l == Noise {
			return true
		}
	}
	return false
}
