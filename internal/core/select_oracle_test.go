package core

import (
	"fmt"
	"math"
	"testing"

	"haccs/internal/stats"
)

// selectOracle is Select as it stood before the latency-ordered lists
// and the reused scratch: clusterWeights, the SRSWR loop and pickWithin
// copied verbatim (telemetry and the introspection snapshot dropped —
// they never fed back into a decision), reading the scheduler's
// clusters, latencies and losses and drawing from its own RNG. The new
// Select must return the same IDs in the same order and consume the
// same random numbers.
type selectOracle struct {
	s   *Scheduler
	rng *stats.RNG
}

// clusterWeights is the uncached walk: one pass over every member of
// every cluster, summing latency and loss side by side. Besides the
// weights it returns the parts, each cluster's available count and the
// cursor Select starts it at (-1 where a NaN latency is available), so
// that TestClusterWeightsCacheMatchesWalk can hold the cached walk to it.
func (o selectOracle) clusterWeights(available []bool) (weights []float64, parts []clusterWeight, remaining, cursor []int) {
	s := o.s
	n := len(s.clusters)
	avgLat := make([]float64, n)
	avgLoss := make([]float64, n)
	weights, parts = make([]float64, n), make([]clusterWeight, n)
	remaining, cursor = make([]int, n), make([]int, n)
	maxLat := 0.0
	totalLoss := 0.0
	for i, members := range s.clusters {
		sumLat, sumLoss, cnt := 0.0, 0.0, 0
		for _, id := range members {
			if available[id] {
				sumLat += s.latency[id]
				sumLoss += s.lastLoss[id]
				cnt++
			}
		}
		remaining[i] = cnt
		if cnt == 0 {
			continue
		}
		if math.IsNaN(sumLat) {
			cursor[i] = -1
		}
		avgLat[i] = sumLat / float64(cnt)
		avgLoss[i] = sumLoss / float64(cnt)
		if avgLat[i] > maxLat {
			maxLat = avgLat[i]
		}
		totalLoss += avgLoss[i]
	}
	for i := range s.clusters {
		if remaining[i] == 0 {
			continue
		}
		tau := 0.0
		if maxLat > 0 {
			tau = 1 - avgLat[i]/maxLat
		}
		lossTerm := 0.0
		if totalLoss > 0 {
			lossTerm = avgLoss[i] / totalLoss
		}
		w := s.cfg.Rho*tau + (1-s.cfg.Rho)*lossTerm
		if w <= 0 {
			w = 1e-9
		}
		weights[i] = w
		parts[i] = clusterWeight{Theta: w, Tau: tau, ACL: avgLoss[i], ACLShare: lossTerm, Alive: true}
	}
	return weights, parts, remaining, cursor
}

func (o selectOracle) Select(available []bool, k int) []int {
	s := o.s
	weights, _, _, _ := o.clusterWeights(available)
	picked := make(map[int]bool, k)
	var selected []int
	remaining := make([]int, len(s.clusters))
	anyRemaining := false
	for i, members := range s.clusters {
		for _, id := range members {
			if available[id] {
				remaining[i]++
			}
		}
		if remaining[i] > 0 && weights[i] > 0 {
			anyRemaining = true
		}
	}
	for len(selected) < k && anyRemaining {
		c := o.rng.WeightedChoice(weights)
		if remaining[c] == 0 {
			weights[c] = 0
			anyRemaining = false
			for i := range weights {
				if weights[i] > 0 && remaining[i] > 0 {
					anyRemaining = true
					break
				}
			}
			continue
		}
		best := o.pickWithin(c, available, picked)
		picked[best] = true
		selected = append(selected, best)
		remaining[c]--
	}
	return selected
}

func (o selectOracle) pickWithin(c int, available []bool, picked map[int]bool) int {
	s := o.s
	if s.cfg.IntraCluster == PickWeighted {
		var ids []int
		var weights []float64
		for _, id := range s.clusters[c] {
			if available[id] && !picked[id] {
				ids = append(ids, id)
				weights = append(weights, 1/math.Max(s.latency[id], 1e-9))
			}
		}
		return ids[o.rng.WeightedChoice(weights)]
	}
	best := -1
	for _, id := range s.clusters[c] {
		if !available[id] || picked[id] {
			continue
		}
		if best == -1 || s.latency[id] < s.latency[best] {
			best = id
		}
	}
	return best
}

// TestSelectMatchesOracle: over random availability masks (dense,
// sparse, empty, whole clusters dead), budgets from 0 past the roster
// size, clusterings with emptied clusters, latency ties and a NaN
// latency, under both intra-cluster policies, Select returns the
// oracle's ID sequence, leaves the RNG in the oracle's state, and
// always returns k-or-fewer distinct available clients.
func TestSelectMatchesOracle(t *testing.T) {
	const n = 60
	for _, policy := range []IntraClusterPolicy{PickFastest, PickWeighted} {
		for seed := uint64(1); seed <= 4; seed++ {
			_, sums, infos := newSynthRoster(PY, n, 5, seed)
			gen := stats.NewRNG(seed + 100)
			for id := range infos {
				infos[id].Latency = float64(1 + gen.Intn(4)) // four rungs: ties everywhere
			}
			if seed%2 == 0 {
				infos[gen.Intn(n)].Latency = math.NaN()
			}
			s := NewScheduler(Config{Kind: PY, Rho: 0.25 * float64(seed), IntraCluster: policy}, sums)
			s.Init(infos, stats.NewRNG(seed+200))
			// An arbitrary clustering over the same roster: nine labels of
			// which two stay unused, so the view carries emptied clusters.
			for id := range s.labels {
				if s.labels[id] = gen.Intn(9); s.labels[id] == 2 || s.labels[id] == 6 {
					s.labels[id] = 8
				}
			}
			s.mu.Lock()
			s.rebuildLocked(nil)
			s.setBaselinesLocked(s.captureBaselines())
			s.mu.Unlock()
			oracle := selectOracle{s: s, rng: stats.NewRNG(seed + 200)}

			for round := 0; round < 150; round++ {
				avail := make([]bool, n)
				switch round % 5 {
				case 0: // everyone
					for id := range avail {
						avail[id] = true
					}
				case 1, 2: // random dropout, light and heavy
					for id := range avail {
						avail[id] = gen.Float64() < []float64{0.8, 0.15}[round%5-1]
					}
				case 3: // one whole cluster dead, the rest up
					dead := s.labels[gen.Intn(n)]
					for id := range avail {
						avail[id] = s.labels[id] != dead
					}
				case 4: // nobody, or one cluster only
					if only := s.labels[gen.Intn(n)]; round%10 == 9 {
						for id := range avail {
							avail[id] = s.labels[id] == only
						}
					}
				}
				k := gen.Intn(n + 6)
				when := fmt.Sprintf("policy %d seed %d round %d k %d", policy, seed, round, k)

				want := oracle.Select(avail, k)
				got := s.Select(round, avail, k)
				if len(got) != len(want) {
					t.Fatalf("%s: selected %v, oracle %v", when, got, want)
				}
				seen := map[int]bool{}
				for i, id := range got {
					if id != want[i] {
						t.Fatalf("%s: selected %v, oracle %v", when, got, want)
					}
					if !avail[id] || seen[id] {
						t.Fatalf("%s: client %d unavailable or selected twice in %v", when, id, got)
					}
					seen[id] = true
				}
				if len(got) > k {
					t.Fatalf("%s: %d selected", when, len(got))
				}
				if s.rng.State() != oracle.rng.State() {
					t.Fatalf("%s: RNG stream diverged from the oracle's", when)
				}
				for _, f := range s.sel.picked {
					if f {
						t.Fatalf("%s: picked flags not cleared", when)
					}
				}
				losses := make([]float64, len(got))
				for i := range losses {
					losses[i] = gen.Uniform(0.05, 4)
				}
				s.Update(round, got, losses)
			}
		}
	}
}
