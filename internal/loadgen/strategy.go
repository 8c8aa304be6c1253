package loadgen

import "haccs/internal/rounds"

// UniformStrategy is the harness's selection strategy: the uniform
// sampler shared with the shard agents (see rounds.UniformStrategy),
// under the name the harness and the CLIs have always used.
type UniformStrategy = rounds.UniformStrategy

// NewUniformStrategy seeds the selection stream.
func NewUniformStrategy(seed uint64) *UniformStrategy { return rounds.NewUniformStrategy(seed) }
