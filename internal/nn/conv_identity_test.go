package nn

import (
	"math"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// fillPattern writes a deterministic sign-varying pattern so tests do
// not depend on RNG plumbing for input data.
func fillPattern(data []float64, salt uint64) {
	x := salt*0x9e3779b97f4a7c15 + 1
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = float64(int64(x%2000)-1000) / 997.0
	}
}

func bitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

var identityGeoms = []tensor.ConvGeom{
	{Channels: 1, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 0},
	{Channels: 3, Height: 9, Width: 7, Kernel: 3, Stride: 1, Pad: 1},
	{Channels: 2, Height: 11, Width: 11, Kernel: 5, Stride: 2, Pad: 2},
	{Channels: 3, Height: 16, Width: 16, Kernel: 5, Stride: 1, Pad: 0},
	{Channels: 4, Height: 6, Width: 10, Kernel: 2, Stride: 2, Pad: 0},
}

// TestConv2DMatchesReferenceBitExact pins the batched im2col+GEMM
// convolution to the per-image reference: identical parameters and
// inputs must produce bit-identical forward outputs, input gradients,
// weight gradients and bias gradients — the invariant the batched
// kernels are designed around (see internal/tensor/matmul.go). Two
// passes per geometry exercise arena reuse.
func TestConv2DMatchesReferenceBitExact(t *testing.T) {
	for gi, g := range identityGeoms {
		const filters = 5
		batched := NewConv2D(g, filters, stats.NewRNG(uint64(100+gi)))
		ref := NewConv2DRef(g, filters, stats.NewRNG(uint64(100+gi)))
		bitEqual(t, batched.W.Data, ref.W.Data, "initial W")
		bitEqual(t, batched.B.Data, ref.B.Data, "initial B")

		const batch = 3
		outSize := filters * g.OutHeight() * g.OutWidth()
		for pass := 0; pass < 2; pass++ {
			x := tensor.New(batch, g.Channels*g.Height*g.Width)
			fillPattern(x.Data, uint64(7*gi+pass))
			gradOut := tensor.New(batch, outSize)
			fillPattern(gradOut.Data, uint64(31*gi+pass))

			yB := batched.Forward(x)
			yR := ref.Forward(x)
			bitEqual(t, yB.Data, yR.Data, "forward output")

			batched.ZeroGrads()
			ref.ZeroGrads()
			gB := batched.Backward(gradOut)
			gR := ref.Backward(gradOut)
			bitEqual(t, gB.Data, gR.Data, "input gradient")
			bitEqual(t, batched.dW.Data, ref.dW.Data, "weight gradient")
			bitEqual(t, batched.dB.Data, ref.dB.Data, "bias gradient")
		}
	}
}

// TestConv2DGradAccumulatesLikeReference checks that gradient
// accumulation across multiple Backward calls (without ZeroGrads)
// stays bit-identical too: dW is accumulated via chunked partial sums
// in the batched layer and via per-image adds in the reference.
func TestConv2DGradAccumulatesLikeReference(t *testing.T) {
	g := identityGeoms[1]
	const filters, batch = 4, 2
	batched := NewConv2D(g, filters, stats.NewRNG(55))
	ref := NewConv2DRef(g, filters, stats.NewRNG(55))
	outSize := filters * g.OutHeight() * g.OutWidth()
	for pass := 0; pass < 3; pass++ {
		x := tensor.New(batch, g.Channels*g.Height*g.Width)
		fillPattern(x.Data, uint64(pass))
		gradOut := tensor.New(batch, outSize)
		fillPattern(gradOut.Data, uint64(pass+17))
		batched.Forward(x)
		ref.Forward(x)
		batched.Backward(gradOut)
		ref.Backward(gradOut)
	}
	bitEqual(t, batched.dW.Data, ref.dW.Data, "accumulated dW")
	bitEqual(t, batched.dB.Data, ref.dB.Data, "accumulated dB")
}

// TestLeNetMatchesLeNetRef runs full training steps on the batched and
// reference LeNets from identical seeds and demands bit-identical
// parameters afterwards — the end-to-end version of the layer-level
// identity above.
func TestLeNetMatchesLeNetRef(t *testing.T) {
	a := NewLeNet(1, 16, 16, 4, 3, 5, stats.NewRNG(77))
	b := NewLeNetRef(1, 16, 16, 4, 3, 5, stats.NewRNG(77))
	optA := NewSGD(0.05, 0.9, 1e-4)
	optB := NewSGD(0.05, 0.9, 1e-4)
	const batch = 4
	labels := []int{0, 1, 2, 3}
	for step := 0; step < 3; step++ {
		x := tensor.New(batch, 16*16)
		fillPattern(x.Data, uint64(step))
		lossA := TrainBatch(a, optA, x, labels)
		lossB := TrainBatch(b, optB, x, labels)
		if lossA != lossB {
			t.Fatalf("step %d: loss %v != %v", step, lossA, lossB)
		}
	}
	bitEqual(t, a.ParamsVector(), b.ParamsVector(), "trained parameters")
}

// TestTrainBatchSteadyStateAllocs asserts the training hot path is
// allocation-free once arenas are warm (the PR's ≤2 allocs/op budget).
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	net := NewLeNet(1, 16, 16, 4, 3, 5, stats.NewRNG(9))
	opt := NewSGD(0.05, 0.9, 0)
	const batch = 4
	x := tensor.New(batch, 16*16)
	fillPattern(x.Data, 3)
	labels := []int{0, 1, 2, 3}
	TrainBatch(net, opt, x, labels) // warm up arenas and optimizer state
	allocs := testing.AllocsPerRun(10, func() {
		TrainBatch(net, opt, x, labels)
	})
	if allocs > 2 {
		t.Fatalf("TrainBatch steady state allocates %.1f objects/op, want <= 2", allocs)
	}
}
