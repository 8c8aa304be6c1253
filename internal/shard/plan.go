package shard

import (
	"sort"

	"haccs/internal/sketch"
)

// PlanBudgets apportions the global selection budget k across shards
// from the sketch representatives they announced in their Hellos,
// keeping selection heterogeneity-aware across the tree: the root
// clusters every shard's representatives into one global ε-net, gives
// each global cluster (distribution mode) an equal share of the
// budget — the HACCS equal-cluster-sampling principle one level up —
// and splits a cluster's share among the shards proportionally to how
// many of their clients live in it. Budgets are integers that sum to
// min(k, total clients) via largest-remainder apportionment with
// deterministic shard-order tie-breaking, and never exceed a shard's
// client count.
//
// Shards that ship no representatives (or disagree on sketch
// geometry) degrade the plan to client-count-proportional
// apportionment, which is the correct weight under homogeneity.
func PlanBudgets(hellos []Hello, k int) []int {
	budgets := make([]int, len(hellos))
	if k <= 0 || len(hellos) == 0 {
		return budgets
	}
	capacity := make([]int, len(hellos))
	total := 0
	for i, h := range hellos {
		capacity[i] = len(h.Clients)
		total += capacity[i]
	}
	if k > total {
		k = total
	}

	weights := clusterWeights(hellos)
	if weights == nil {
		// Degenerate geometry: weight by roster size.
		weights = make([]float64, len(hellos))
		for i := range hellos {
			weights[i] = float64(capacity[i])
		}
	}
	apportion(budgets, weights, capacity, k)
	return budgets
}

// clusterWeights computes each shard's share of the budget from a
// global ε-net over all shards' representatives, or nil when the
// representatives are unusable (absent or with mismatched dims).
func clusterWeights(hellos []Hello) []float64 {
	dim, reps := 0, 0
	for _, h := range hellos {
		if len(h.Reps) == 0 {
			return nil
		}
		if dim == 0 {
			dim = h.SketchDim
		}
		if h.SketchDim != dim || dim <= 0 {
			return nil
		}
		reps += len(h.Reps)
	}
	idx := sketch.NewIndex(reps, dim, sketch.DefaultAttachRadius, nil)
	// Pseudo-client c enumerates (shard, rep) pairs in shard order;
	// cluster[c] is its global cluster, pop[g] the client mass in g.
	cluster := make([]int, reps)
	var pop []int
	c := 0
	for _, h := range hellos {
		for i, rep := range h.Reps {
			g, created := idx.Observe(c, rep)
			if created {
				pop = append(pop, 0)
			}
			cluster[c] = g
			pop[g] += h.RepCounts[i]
			c++
		}
	}
	weights := make([]float64, len(hellos))
	share := 1 / float64(len(pop))
	c = 0
	for s, h := range hellos {
		for i := range h.Reps {
			g := cluster[c]
			weights[s] += share * float64(h.RepCounts[i]) / float64(pop[g])
			c++
		}
	}
	return weights
}

// apportion fills budgets with a largest-remainder split of k by
// weight, capped by per-shard capacity; capped-off surplus recycles to
// shards with headroom. Ties break by ascending shard index, so the
// plan is a pure function of its inputs.
func apportion(budgets []int, weights []float64, capacity []int, k int) {
	totalW := 0.0
	for i, w := range weights {
		if w < 0 {
			weights[i] = 0
			continue
		}
		totalW += w
	}
	if totalW <= 0 {
		for i := range weights {
			weights[i] = float64(capacity[i])
			totalW += weights[i]
		}
		if totalW <= 0 {
			return
		}
	}
	type rem struct {
		idx  int
		frac float64
	}
	assigned := 0
	rems := make([]rem, 0, len(budgets))
	for i, w := range weights {
		exact := float64(k) * w / totalW
		b := int(exact)
		if b > capacity[i] {
			b = capacity[i]
		}
		budgets[i] = b
		assigned += b
		frac := exact - float64(int(exact))
		rems = append(rems, rem{idx: i, frac: frac})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	// Hand out the remainder (and any capacity-capped surplus) one seat
	// at a time to the largest fractional parts with headroom, cycling
	// until k seats are placed; headroom is guaranteed because k was
	// clamped to the total capacity.
	for assigned < k {
		progressed := false
		for _, r := range rems {
			if assigned == k {
				break
			}
			if budgets[r.idx] < capacity[r.idx] {
				budgets[r.idx]++
				assigned++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}
