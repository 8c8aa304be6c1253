package nn

import (
	"math"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// TestFirstLayerSkipChangesNothing trains each architecture K steps
// through Network.Backward, which gives the first layer only its
// parameter gradients, and K steps through a loop that calls every
// layer's Backward, the first included. Losses and parameters must be
// bit-equal.
func TestFirstLayerSkipChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		arch  Arch
		batch int
	}{
		{Arch{Kind: "lenet", Channels: 3, Height: 16, Width: 16, Classes: 10, ConvFilters: [2]int{4, 8}}, 6},
		{Arch{Kind: "lenet", Channels: 1, Height: 17, Width: 16, Classes: 4, ConvFilters: [2]int{3, 5}}, 5},
		{Arch{Kind: "lenet-ref", Channels: 2, Height: 16, Width: 16, Classes: 4, ConvFilters: [2]int{3, 5}}, 3},
		{Arch{Kind: "mlp", In: 12, Hidden: []int{7, 5}, Classes: 3}, 9},
	} {
		const steps = 4
		skip := tc.arch.Build(stats.NewRNG(21))
		full := tc.arch.Build(stats.NewRNG(21))
		optS, optF := NewSGD(0.05, 0.9, 1e-4), NewSGD(0.05, 0.9, 1e-4)
		in := tc.arch.In
		if tc.arch.Kind != "mlp" {
			in = tc.arch.Channels * tc.arch.Height * tc.arch.Width
		}
		labels := make([]int, tc.batch)
		for i := range labels {
			labels[i] = i % tc.arch.Classes
		}
		for step := 0; step < steps; step++ {
			x := tensor.New(tc.batch, in)
			fillPattern(x.Data, uint64(step+1))
			lossS := TrainBatch(skip, optS, x, labels)

			full.ZeroGrads()
			lossF, g := full.LossGrad(full.Forward(x), labels)
			for i := len(full.Layers) - 1; i >= 0; i-- {
				g = full.Layers[i].Backward(g)
			}
			optF.Step(full)

			if math.Float64bits(lossS) != math.Float64bits(lossF) {
				t.Fatalf("%s step %d: loss %v != %v", tc.arch.Kind, step, lossS, lossF)
			}
		}
		bitEqual(t, skip.ParamsVector(), full.ParamsVector(), tc.arch.Kind+" parameters")
	}
}

// TestEvaluateSteadyStateAllocs pins evaluation at zero allocations
// once the arenas are warm: it computes no gradient and keeps nothing.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	net, x, y := simShapeNet()
	net.Evaluate(x, y)
	if allocs := testing.AllocsPerRun(10, func() { net.Evaluate(x, y) }); allocs != 0 {
		t.Fatalf("Evaluate steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// poolForward runs p.Forward, then, when generic is set, overwrites its
// output and argmax with the any-window path, so one geometry exercises
// both paths.
func poolForward(p *MaxPool2D, x *tensor.Dense, generic bool) *tensor.Dense {
	y := p.Forward(x)
	if generic {
		p.forwardAny(x, y)
	}
	return y
}

// TestMaxPoolNonFinite is the table for windows that hold −Inf or NaN,
// on the generic path and on the 2×2 fast path: the maximum seeds from
// the window's first element, so a leading NaN propagates, an all −Inf
// window yields −Inf, the argmax always lies inside the window and
// Backward routes the gradient there instead of panicking.
func TestMaxPoolNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		window  [4]float64 // first, right, below, below-right
		wantVal float64
		wantArg int // position in the window
	}{
		{"finite", [4]float64{1, 3, 2, -1}, 3, 1},
		{"ties keep the first", [4]float64{2, 2, 2, 2}, 2, 0},
		{"all -Inf", [4]float64{-inf, -inf, -inf, -inf}, -inf, 0},
		{"leading NaN propagates", [4]float64{nan, 5, 6, 7}, nan, 0},
		{"later NaN is passed over", [4]float64{1, nan, 4, 2}, 4, 2},
		{"-Inf then finite", [4]float64{-inf, -inf, -2, -inf}, -2, 2},
		{"+Inf wins", [4]float64{0, inf, 1, 2}, inf, 1},
	} {
		for _, generic := range []bool{false, true} {
			p := NewMaxPool2D(tensor.ConvGeom{Channels: 1, Height: 2, Width: 2, Kernel: 2, Stride: 2})
			x := tensor.FromSlice(tc.window[:], 1, 4)
			y := poolForward(p, x, generic)
			got, want := y.Data[0], tc.wantVal
			if !(got == want || math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s (generic %v): max = %v, want %v", tc.name, generic, got, want)
			}
			if p.lastArg[0] != tc.wantArg {
				t.Errorf("%s (generic %v): argmax %d, want %d", tc.name, generic, p.lastArg[0], tc.wantArg)
			}
			g := p.Backward(tensor.FromSlice([]float64{1}, 1, 1))
			if g.Data[tc.wantArg] != 1 {
				t.Errorf("%s (generic %v): gradient %v not routed to %d", tc.name, generic, g.Data, tc.wantArg)
			}
		}
	}
}

// TestMaxPool2x2MatchesGeneric pins the 2×2/stride-2 fast path to the
// any-window path on odd and even sizes, ties and non-finite values:
// identical output bits and identical argmax indices.
func TestMaxPool2x2MatchesGeneric(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 0.5}
	for _, g := range []tensor.ConvGeom{
		{Channels: 3, Height: 7, Width: 5, Kernel: 2, Stride: 2},
		{Channels: 4, Height: 12, Width: 12, Kernel: 2, Stride: 2},
		{Channels: 1, Height: 3, Width: 9, Kernel: 2, Stride: 2},
		{Channels: 2, Height: 2, Width: 2, Kernel: 2, Stride: 2},
	} {
		const batch = 3
		fast, slow := NewMaxPool2D(g), NewMaxPool2D(g)
		x := tensor.New(batch, g.Channels*g.Height*g.Width)
		fillPattern(x.Data, uint64(g.Height*g.Width))
		for i := 0; i < len(x.Data); i += 5 {
			x.Data[i] = specials[(i/5)%len(specials)]
		}
		yF := poolForward(fast, x, false)
		yS := poolForward(slow, x, true)
		bitEqual(t, yF.Data, yS.Data, "pool output")
		for i := range fast.lastArg {
			if fast.lastArg[i] != slow.lastArg[i] {
				t.Fatalf("geom %+v: argmax %d = %d, generic %d", g, i, fast.lastArg[i], slow.lastArg[i])
			}
		}
	}
}

// TestCrossEntropyOneBody checks that every entry point computes the same
// loss bits, and the allocating and the arena gradient the same bits.
func TestCrossEntropyOneBody(t *testing.T) {
	rng := stats.NewRNG(5)
	logits := tensor.New(7, 4)
	logits.RandNormal(0, 3, rng)
	logits.Data[3] = -800 // a probability that clamps
	labels := []int{0, 3, 1, 2, 2, 0, 3}
	loss, grad := SoftmaxCrossEntropy(logits, labels)
	n := NewMLP(4, nil, 4, stats.NewRNG(1))
	lossArena, gradArena := n.LossGrad(logits, labels)
	bitEqual(t, []float64{lossArena, n.lossOf(logits, labels)}, []float64{loss, loss}, "loss")
	bitEqual(t, gradArena.Data, grad.Data, "gradient")
}
