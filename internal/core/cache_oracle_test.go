package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"haccs/internal/stats"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func samePart(a, b clusterWeight) bool {
	return sameBits([]float64{a.Theta, a.Tau, a.ACL, a.ACLShare}, []float64{b.Theta, b.Tau, b.ACL, b.ACLShare}) && a.Alive == b.Alive
}

// TestClusterWeightsCacheMatchesWalk: on both backends, over a NaN
// latency, loss feedback every step, a few masks that recur (so the
// cache hits) — all available, two dropout masks, one cluster out —
// and summary batches that move clients between clusters (sketch) or
// re-cluster outright (dense, and the sketch drift trigger), the cached
// clusterWeights returns the uncached walk's (selectOracle's) weights, parts, counts and
// cursors bit for bit, on the steps that walk the members and on those
// that read the cache. With every member available, a cluster's cached
// list is its published member list.
func TestClusterWeightsCacheMatchesWalk(t *testing.T) {
	const n, groups = 120, 6
	for _, backend := range []ClusterBackend{DenseBackend, SketchBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			roster, sums, infos := newSynthRoster(PY, n, groups, 7)
			infos[17].Latency = math.NaN()
			s := NewScheduler(Config{Kind: PY, Rho: 0.4, Backend: backend}, sums)
			s.Init(infos, stats.NewRNG(8))
			gen := stats.NewRNG(9)
			masks := [][]bool{allAvailable(n), make([]bool, n), make([]bool, n), make([]bool, n)}
			for id := range masks[1] {
				masks[1][id] = gen.Float64() < 0.8
				masks[2][id] = gen.Float64() < 0.3
			}
			out := s.labels[3]
			for id := range masks[3] {
				masks[3][id] = s.labels[id] != out
			}
			versions, built := map[uint64]bool{}, 0
			for step := 0; step < 200; step++ {
				mask := masks[(step/3)%len(masks)]
				when := fmt.Sprintf("step %d version %d", step, s.version)
				gotW, gotP := s.clusterWeights(mask)
				wantW, wantP, wantRem, wantCur := selectOracle{s: s}.clusterWeights(mask)
				if !sameBits(gotW, wantW) {
					t.Fatalf("%s: weights %v, uncached walk %v", when, gotW, wantW)
				}
				for i := range wantP {
					if !samePart(gotP[i], wantP[i]) {
						t.Fatalf("%s: cluster %d parts %+v, uncached walk %+v", when, i, gotP[i], wantP[i])
					}
				}
				if !slices.Equal(s.sel.remaining, wantRem) || !slices.Equal(s.sel.cursor, wantCur) {
					t.Fatalf("%s: counts/cursors %v/%v, uncached walk %v/%v", when, s.sel.remaining, s.sel.cursor, wantRem, wantCur)
				}
				if s.sel.sums.built {
					built++
				}
				if (step/3)%len(masks) == 0 && s.sel.sums.built {
					for i, members := range s.clusters {
						if len(members) > 0 && &s.sel.sums.avail[i][0] != &members[0] {
							t.Fatalf("%s: all available, but cluster %d's cached list is a copy", when, i)
						}
					}
				}
				versions[s.version] = true

				ids := make([]int, 1+gen.Intn(12))
				losses := make([]float64, len(ids))
				for i := range ids {
					ids[i], losses[i] = gen.Intn(n), gen.Uniform(0.05, 4)
				}
				s.Update(step, ids, losses)
				if step%9 == 7 {
					batch := map[int]Summary{}
					for i := 0; i < 6; i++ {
						id := gen.Intn(n)
						g := roster.groupOf[id]
						if gen.Intn(2) == 0 {
							g = gen.Intn(groups)
						}
						batch[id] = roster.draw(g)
					}
					s.UpdateSummaries(batch)
				}
			}
			if built < 50 {
				t.Fatalf("the cache was built in only %d of 200 steps", built)
			}
			if len(versions) < 3 {
				t.Fatalf("membership changed only %d times", len(versions)-1)
			}
		})
	}
}
