package nn

import (
	"runtime"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// simShapeNet builds the network, batch and labels of the benchmark's
// sim_tta workload: a 3×16×16 LeNet with 4 and 8 filters over 10
// classes, one 32-sample batch.
func simShapeNet() (*Network, *tensor.Dense, []int) {
	rng := stats.NewRNG(7)
	net := Arch{Kind: "lenet", Channels: 3, Height: 16, Width: 16, Classes: 10, ConvFilters: [2]int{4, 8}}.Build(rng)
	const batch = 32
	x := tensor.New(batch, 3*16*16)
	x.RandUniform(0, 1, rng)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % 10
	}
	return net, x, y
}

// singleThread pins GOMAXPROCS=1, the setting every benchmark workload
// runs at, so the probe's numbers compare with sim_tta's.
func singleThread(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkTrainStep is the training path's sub-second probe: one
// TrainBatch (forward, loss, backward, SGD step) at sim_tta's shape.
// `make bench-guard` runs it once; run it with -benchmem before and
// after a kernel change for a local number ahead of the 20 s benchmark.
func BenchmarkTrainStep(b *testing.B) {
	singleThread(b)
	net, x, y := simShapeNet()
	opt := NewSGD(0.05, 0, 0)
	TrainBatch(net, opt, x, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainBatch(net, opt, x, y)
	}
}

// BenchmarkEvaluate is the evaluation probe: one Evaluate (forward and
// loss, no gradient) of a 32-sample test batch at sim_tta's shape.
func BenchmarkEvaluate(b *testing.B) {
	singleThread(b)
	net, x, y := simShapeNet()
	net.Evaluate(x, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Evaluate(x, y)
	}
}
