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

// bitEqual requires got and want to hold the same IEEE-754 bits, NaN
// payloads included.
func bitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	compareBits(t, got, want, what, false)
}

// convBitEqual is bitEqual for the convolution oracle: the same bits —
// ±0, subnormals and ±Inf included — except that any two NaNs are equal.
// When two different NaNs meet in an add (math.NaN() is 0x7ff8…1, x86's
// own NaN for Inf−Inf or 0·Inf is 0xfff8…0), which one comes out is the
// operand order, and neither IEEE-754 nor the Go compiler, which treats
// the add as commutative, fixes that order.
func convBitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	compareBits(t, got, want, what, true)
}

// compareBits requires every element pair to hold the same bits or, when
// anyNaN is set, to be two NaNs.
func compareBits(t *testing.T, got, want []float64, what string, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x) (not bit-identical)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// identityCase is one geometry and filter count the identity tests run.
type identityCase struct {
	g       tensor.ConvGeom
	filters int
}

// geom abbreviates a tensor.ConvGeom literal.
func geom(c, h, w, k, stride, pad int) tensor.ConvGeom {
	return tensor.ConvGeom{Channels: c, Height: h, Width: w, Kernel: k, Stride: stride, Pad: pad}
}

// identityGeoms are the shapes Conv2D is pinned to Conv2DRef on. Past
// the general ones they cover each edge of the direct kernels: sim_tta's
// two layers; filter counts ≡ 1, 2 and 3 mod 4 (a part-empty panel);
// output widths ≡ 1, 2 and 3 mod 4 (a recomputed tail), with and without
// an 8-column block; output widths 1, 2 and 3 (the wide span, and a span
// too short for a vector); padding 1 and 2; stride 2.
var identityGeoms = []identityCase{
	{geom(1, 8, 8, 3, 1, 0), 5},
	{geom(3, 9, 7, 3, 1, 1), 5},
	{geom(2, 11, 11, 5, 2, 2), 5},
	{geom(3, 16, 16, 5, 1, 0), 5},
	{geom(4, 6, 10, 2, 2, 0), 5},
	{geom(3, 16, 16, 5, 1, 0), 4}, // sim_tta conv1: outW 12
	{geom(4, 6, 6, 5, 1, 0), 8},   // sim_tta conv2: outW 2
	{geom(2, 7, 7, 3, 1, 0), 1},   // outW 5
	{geom(2, 8, 8, 3, 1, 0), 2},   // outW 6
	{geom(1, 9, 9, 3, 1, 0), 3},   // outW 7
	{geom(2, 11, 10, 3, 1, 0), 6}, // outW 8
	{geom(2, 10, 11, 3, 1, 0), 9}, // outW 9
	{geom(1, 13, 13, 3, 1, 0), 7}, // outW 11
	{geom(2, 5, 5, 5, 1, 0), 3},   // outW 1, outH 1: a one-pixel span
	{geom(3, 7, 5, 4, 1, 0), 5},   // outW 2, outH 4
	{geom(1, 6, 7, 5, 1, 0), 6},   // outW 3, outH 2
	{geom(1, 3, 3, 3, 1, 1), 2},   // pad 1, outW 3
	{geom(2, 4, 2, 3, 1, 2), 3},   // pad 2, outW 4
	{geom(3, 9, 9, 3, 2, 0), 4},   // stride 2
}

// TestConv2DMatchesReferenceBitExact pins the direct convolution to the
// per-image reference: identical parameters and inputs must produce
// bit-identical forward outputs, input gradients, weight gradients and
// bias gradients — the invariant the direct kernels are designed around
// (see internal/tensor/conv.go). Two passes per geometry exercise arena
// reuse.
func TestConv2DMatchesReferenceBitExact(t *testing.T) {
	for gi, tc := range identityGeoms {
		direct := NewConv2D(tc.g, tc.filters, stats.NewRNG(uint64(100+gi)))
		ref := NewConv2DRef(tc.g, tc.filters, stats.NewRNG(uint64(100+gi)))
		bitEqual(t, direct.W.Data, ref.W.Data, "initial W")
		bitEqual(t, direct.B.Data, ref.B.Data, "initial B")
		for pass := 0; pass < 2; pass++ {
			const batch = 3
			x := tensor.New(batch, direct.InSize())
			fillPattern(x.Data, uint64(7*gi+pass))
			gradOut := tensor.New(batch, direct.OutSize())
			fillPattern(gradOut.Data, uint64(31*gi+pass))
			matchRef(t, direct, ref, x, gradOut)
		}
	}
}

// matchRef runs one Forward and one Backward from zeroed gradients on
// both layers and requires bit-identical outputs, input gradients, dW
// and dB (convBitEqual).
func matchRef(t *testing.T, direct *Conv2D, ref *Conv2DRef, x, gradOut *tensor.Dense) {
	t.Helper()
	what := direct.Name()
	convBitEqual(t, direct.Forward(x).Data, ref.Forward(x).Data, what+" forward output")
	direct.ZeroGrads()
	ref.ZeroGrads()
	convBitEqual(t, direct.Backward(gradOut).Data, ref.Backward(gradOut).Data, what+" input gradient")
	convBitEqual(t, direct.dW.Data, ref.dW.Data, what+" weight gradient")
	convBitEqual(t, direct.dB.Data, ref.dB.Data, what+" bias gradient")
}

// nonFinite are the values the direct kernels must carry through exactly
// as the reference does: signed zeros, subnormals, infinities, a NaN.
var nonFinite = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-310, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e-300}

// fillNonFinite writes fillPattern's values with a nonFinite value at
// every step-th position, starting at an offset set by salt.
func fillNonFinite(data []float64, salt uint64, step int) {
	fillPattern(data, salt)
	for i := int(salt) % step; i < len(data); i += step {
		data[i] = nonFinite[(i/step+int(salt))%len(nonFinite)]
	}
}

// TestConv2DNonFiniteMatchesReference is the identity test on inputs,
// weights and output gradients seeded with ±0, subnormals, ±Inf and NaN,
// one operand at a time and all at once, compared by Float64bits: a zero
// weight against an Inf pixel must give NaN in both, and no −0 may turn
// into +0.
func TestConv2DNonFiniteMatchesReference(t *testing.T) {
	for gi, tc := range []identityCase{
		{geom(3, 16, 16, 5, 1, 0), 4},
		{geom(4, 6, 6, 5, 1, 0), 8},
		{geom(2, 7, 9, 3, 1, 2), 6},
		{geom(2, 9, 9, 3, 2, 0), 3},
	} {
		for _, seed := range []struct {
			name          string
			x, w, gradOut bool
		}{
			{"input", true, false, false},
			{"weights", false, true, false},
			{"gradient", false, false, true},
			{"all", true, true, true},
		} {
			direct := NewConv2D(tc.g, tc.filters, stats.NewRNG(uint64(gi)))
			ref := NewConv2DRef(tc.g, tc.filters, stats.NewRNG(uint64(gi)))
			const batch = 2
			x := tensor.New(batch, direct.InSize())
			fillPattern(x.Data, uint64(gi))
			gradOut := tensor.New(batch, direct.OutSize())
			fillPattern(gradOut.Data, uint64(gi+1))
			if seed.x {
				fillNonFinite(x.Data, uint64(gi), 41)
			}
			if seed.w {
				fillNonFinite(direct.W.Data, uint64(gi+2), 11)
				fillNonFinite(direct.B.Data, uint64(gi+3), 2)
				copy(ref.W.Data, direct.W.Data)
				copy(ref.B.Data, direct.B.Data)
			}
			if seed.gradOut {
				fillNonFinite(gradOut.Data, uint64(gi+4), 13)
			}
			t.Run(direct.Name()+"/"+seed.name, func(t *testing.T) { matchRef(t, direct, ref, x, gradOut) })
		}
	}
}

// TestConv2DGradAccumulatesLikeReference checks that gradient
// accumulation across multiple Backward calls (without ZeroGrads)
// stays bit-identical too: dW carries its 4×4 blocks across images in
// the direct layer and is added image by image in the reference.
func TestConv2DGradAccumulatesLikeReference(t *testing.T) {
	g := identityGeoms[1].g
	const filters, batch = 4, 2
	direct := NewConv2D(g, filters, stats.NewRNG(55))
	ref := NewConv2DRef(g, filters, stats.NewRNG(55))
	outSize := filters * g.OutHeight() * g.OutWidth()
	for pass := 0; pass < 3; pass++ {
		x := tensor.New(batch, g.Channels*g.Height*g.Width)
		fillPattern(x.Data, uint64(pass))
		gradOut := tensor.New(batch, outSize)
		fillPattern(gradOut.Data, uint64(pass+17))
		direct.Forward(x)
		ref.Forward(x)
		direct.Backward(gradOut)
		ref.Backward(gradOut)
	}
	bitEqual(t, direct.dW.Data, ref.dW.Data, "accumulated dW")
	bitEqual(t, direct.dB.Data, ref.dB.Data, "accumulated dB")
}

// TestLeNetMatchesLeNetRef runs full training steps on the direct and
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
