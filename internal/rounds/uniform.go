package rounds

import "haccs/internal/stats"

// UniformStrategy selects k clients uniformly at random from the
// available set each round. It is the deliberately simplest strategy:
// the scale harness uses it so its results measure the transport and
// round runtime, not selection cost or bias, and the shard agent uses
// it for the async within-shard draw, where the heterogeneity awareness
// lives in the root's θ-budget plan. It holds no model state, so a
// crash+resume rebuilds it fresh (it is not a checkpoint.Snapshotter).
type UniformStrategy struct {
	rng *stats.RNG
	ids []int // scratch, reused across rounds
}

// NewUniformStrategy seeds the selection stream.
func NewUniformStrategy(seed uint64) *UniformStrategy {
	return &UniformStrategy{rng: stats.NewRNG(seed)}
}

// Select implements Strategy with a partial Fisher-Yates over the
// available IDs.
func (s *UniformStrategy) Select(round int, available []bool, k int) []int {
	s.ids = s.ids[:0]
	for id, ok := range available {
		if ok {
			s.ids = append(s.ids, id)
		}
	}
	if k > len(s.ids) {
		k = len(s.ids)
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.ids)-i)
		s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	}
	return append([]int(nil), s.ids[:k]...)
}

// Update implements Strategy; a uniform sampler learns nothing.
func (s *UniformStrategy) Update(round int, selected []int, losses []float64) {}
