package nn

import (
	"math"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, stats.NewRNG(1))
	copy(d.W.Data, []float64{1, 2, 3, 4})
	copy(d.B.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Errorf("Dense forward = %v", y.Data)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient: (0.25 - onehot)/batch.
	if math.Abs(grad.At(0, 0)-(0.25-1)/2) > 1e-12 {
		t.Errorf("grad[0,0] = %v", grad.At(0, 0))
	}
	if math.Abs(grad.At(0, 1)-0.25/2) > 1e-12 {
		t.Errorf("grad[0,1] = %v", grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	rng := stats.NewRNG(2)
	logits := tensor.New(3, 5)
	logits.RandNormal(0, 2, rng)
	_, grad := SoftmaxCrossEntropy(logits, []int{1, 0, 4})
	for i := 0; i < 3; i++ {
		s := 0.0
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("row %d gradient sums to %v, want 0", i, s)
		}
	}
}

// numericalGrad estimates d(loss)/d(param[idx]) by central differences.
func numericalGrad(n *Network, x *tensor.Dense, labels []int, p *tensor.Dense, idx int) float64 {
	const h = 1e-5
	orig := p.Data[idx]
	p.Data[idx] = orig + h
	lossPlus := n.Loss(x, labels)
	p.Data[idx] = orig - h
	lossMinus := n.Loss(x, labels)
	p.Data[idx] = orig
	return (lossPlus - lossMinus) / (2 * h)
}

func checkGradients(t *testing.T, n *Network, x *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	n.ZeroGrads()
	logits := n.Forward(x)
	_, grad := SoftmaxCrossEntropy(logits, labels)
	n.Backward(grad)
	for li, l := range n.Layers {
		params := l.Params()
		grads := l.Grads()
		for pi, p := range params {
			// Check a subset of indices for big tensors.
			step := p.Size()/25 + 1
			for idx := 0; idx < p.Size(); idx += step {
				want := numericalGrad(n, x, labels, p, idx)
				got := grads[pi].Data[idx]
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Errorf("layer %d (%s) param %d idx %d: analytic %v numeric %v",
						li, l.Name(), pi, idx, got, want)
				}
			}
		}
	}
}

func TestGradientCheckMLP(t *testing.T) {
	rng := stats.NewRNG(3)
	n := NewMLP(6, []int{8, 5}, 3, rng)
	x := tensor.New(4, 6)
	x.RandNormal(0, 1, rng)
	checkGradients(t, n, x, []int{0, 1, 2, 1}, 1e-6)
}

func TestGradientCheckConvNet(t *testing.T) {
	rng := stats.NewRNG(4)
	g := tensor.ConvGeom{Channels: 1, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 0}
	conv := NewConv2D(g, 2, rng)
	pg := tensor.ConvGeom{Channels: 2, Height: 6, Width: 6, Kernel: 2, Stride: 2, Pad: 0}
	pool := NewMaxPool2D(pg)
	n := NewNetwork(conv, NewReLU(), pool, NewFlatten(), NewDense(2*3*3, 3, rng))
	x := tensor.New(3, 64)
	x.RandNormal(0, 1, rng)
	checkGradients(t, n, x, []int{0, 2, 1}, 1e-5)
}

func TestGradientCheckConvWithPadding(t *testing.T) {
	rng := stats.NewRNG(5)
	g := tensor.ConvGeom{Channels: 2, Height: 5, Width: 5, Kernel: 3, Stride: 1, Pad: 1}
	conv := NewConv2D(g, 3, rng)
	n := NewNetwork(conv, NewReLU(), NewFlatten(), NewDense(3*5*5, 2, rng))
	x := tensor.New(2, 50)
	x.RandNormal(0, 1, rng)
	checkGradients(t, n, x, []int{1, 0}, 1e-5)
}

// TestReLUForwardBackward checks output bits: positive values pass
// unchanged, everything else — zeros of either sign, negatives, −Inf,
// NaN — becomes +0, and Backward passes gradient bits only where the
// input was positive.
func TestReLUForwardBackward(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	r := NewReLU()
	x := []float64{-1, 2, -3, 4, nan, negZero, 0, inf, -inf, 5e-324}
	y := r.Forward(tensor.FromSlice(x, 1, len(x)))
	bitEqual(t, y.Data, []float64{0, 2, 0, 4, 0, 0, 0, inf, 0, 5e-324}, "ReLU forward")
	gradOut := []float64{5, 5, 5, 5, 1, 2, 3, nan, 7, negZero}
	g := r.Backward(tensor.FromSlice(gradOut, 1, len(gradOut)))
	bitEqual(t, g.Data, []float64{0, 5, 0, 5, 0, 0, 0, nan, 0, negZero}, "ReLU backward")
}

func TestMaxPoolForward(t *testing.T) {
	pg := tensor.ConvGeom{Channels: 1, Height: 4, Width: 4, Kernel: 2, Stride: 2, Pad: 0}
	p := NewMaxPool2D(pg)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 16)
	y := p.Forward(x)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Errorf("pool out[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	// Backward routes gradient only to the argmax positions.
	g := p.Backward(tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4))
	nonzero := 0
	for _, v := range g.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Errorf("pool backward nonzeros = %d, want 4", nonzero)
	}
	if g.Data[5] != 1 { // position of value 4
		t.Error("gradient not routed to argmax")
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	rng := stats.NewRNG(6)
	n := NewMLP(4, []int{7}, 3, rng)
	v := n.ParamsVector()
	if len(v) != n.NumParams() {
		t.Fatalf("vector length %d, want %d", len(v), n.NumParams())
	}
	if n.NumParams() != 4*7+7+7*3+3 {
		t.Fatalf("NumParams = %d", n.NumParams())
	}
	m := NewMLP(4, []int{7}, 3, stats.NewRNG(7))
	m.SetParamsVector(v)
	v2 := m.ParamsVector()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSetParamsVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(2, nil, 2, stats.NewRNG(1)).SetParamsVector([]float64{1})
}

func TestCloneIndependence(t *testing.T) {
	rng := stats.NewRNG(8)
	n := NewMLP(3, []int{4}, 2, rng)
	c := n.Clone()
	before := n.ParamsVector()
	// Mutate the clone.
	cv := c.ParamsVector()
	for i := range cv {
		cv[i] += 1
	}
	c.SetParamsVector(cv)
	after := n.ParamsVector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Clone shares parameter storage")
		}
	}
}

func TestSGDReducesLossOnSeparableData(t *testing.T) {
	rng := stats.NewRNG(9)
	n := NewMLP(2, []int{16}, 2, rng)
	opt := NewSGD(0.1, 0.9, 0)
	// Two well-separated Gaussian blobs.
	batch := 64
	x := tensor.New(batch, 2)
	labels := make([]int, batch)
	for i := 0; i < batch; i++ {
		if i%2 == 0 {
			x.Set(i, 0, rng.Normal(2, 0.5))
			x.Set(i, 1, rng.Normal(2, 0.5))
			labels[i] = 0
		} else {
			x.Set(i, 0, rng.Normal(-2, 0.5))
			x.Set(i, 1, rng.Normal(-2, 0.5))
			labels[i] = 1
		}
	}
	initial := n.Loss(x, labels)
	for epoch := 0; epoch < 100; epoch++ {
		TrainBatch(n, opt, x, labels)
	}
	final, acc := n.Evaluate(x, labels)
	if final >= initial {
		t.Errorf("loss did not decrease: %v -> %v", initial, final)
	}
	if acc < 0.95 {
		t.Errorf("accuracy = %v on separable blobs, want >= 0.95", acc)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	rng := stats.NewRNG(10)
	n := NewMLP(2, nil, 2, rng)
	opt := NewSGD(0.1, 0, 0.5)
	x := tensor.New(1, 2) // zero input: only decay acts on W
	labels := []int{0}
	normBefore := n.Layers[0].Params()[0].Norm2()
	for i := 0; i < 20; i++ {
		TrainBatch(n, opt, x, labels)
	}
	normAfter := n.Layers[0].Params()[0].Norm2()
	if normAfter >= normBefore {
		t.Errorf("weight decay did not shrink weights: %v -> %v", normBefore, normAfter)
	}
}

func TestLeNetShapesAndTraining(t *testing.T) {
	rng := stats.NewRNG(11)
	// 28x28 single channel, as synthetic MNIST.
	n := NewLeNet(1, 28, 28, 10, 4, 8, rng)
	x := tensor.New(8, 28*28)
	x.RandNormal(0, 1, rng)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	logits := n.Forward(x)
	if logits.Rows() != 8 || logits.Cols() != 10 {
		t.Fatalf("LeNet logits shape %v", logits.Shape)
	}
	opt := NewSGD(0.05, 0.9, 0)
	initial := n.Loss(x, labels)
	for i := 0; i < 30; i++ {
		TrainBatch(n, opt, x, labels)
	}
	if final := n.Loss(x, labels); final >= initial {
		t.Errorf("LeNet memorization failed: %v -> %v", initial, final)
	}
}

func TestArchBuild(t *testing.T) {
	rng := stats.NewRNG(12)
	mlp := Arch{Kind: "mlp", In: 10, Hidden: []int{5}, Classes: 3}.Build(rng)
	if mlp.NumParams() != 10*5+5+5*3+3 {
		t.Errorf("mlp params = %d", mlp.NumParams())
	}
	lenet := Arch{Kind: "lenet", Channels: 1, Height: 28, Width: 28, Classes: 10}.Build(rng)
	if lenet.NumParams() == 0 {
		t.Error("lenet has no params")
	}
	if lenet.WireBytes() != 4*lenet.NumParams() {
		t.Error("WireBytes mismatch")
	}
}

func TestArchBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Arch{Kind: "transformer"}.Build(stats.NewRNG(1))
}

func TestArchEqual(t *testing.T) {
	a := Arch{Kind: "mlp", In: 4, Hidden: []int{3, 2}, Classes: 2}
	if !a.Equal(a) {
		t.Error("identical archs unequal")
	}
	b := a
	b.Hidden = []int{3, 9}
	if a.Equal(b) {
		t.Error("different hidden sizes equal")
	}
	c := a
	c.Kind = "lenet"
	if a.Equal(c) {
		t.Error("different kinds equal")
	}
	if d := (Arch{Kind: "mlp", In: 4, Classes: 2}); !d.Equal(Arch{Kind: "mlp", In: 4, Hidden: []int{}, Classes: 2}) {
		t.Error("nil and empty Hidden unequal")
	}
}

func TestBuildDeterministicFromSeed(t *testing.T) {
	a := Arch{Kind: "mlp", In: 6, Hidden: []int{4}, Classes: 2}
	n1 := a.Build(stats.NewRNG(77))
	n2 := a.Build(stats.NewRNG(77))
	v1, v2 := n1.ParamsVector(), n2.ParamsVector()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed produced different init")
		}
	}
}

func TestEvaluateEmptyBatch(t *testing.T) {
	n := NewMLP(2, nil, 2, stats.NewRNG(1))
	loss, acc := n.Evaluate(tensor.New(1, 2), nil)
	if loss != 0 || acc != 0 {
		t.Errorf("empty evaluate = %v, %v", loss, acc)
	}
}

func TestAccuracyPerfectAndZero(t *testing.T) {
	// A hand-built network that always predicts class 1.
	d := NewDense(1, 2, stats.NewRNG(1))
	copy(d.W.Data, []float64{0, 0})
	copy(d.B.Data, []float64{0, 10})
	n := NewNetwork(d)
	x := tensor.New(4, 1)
	if acc := n.Accuracy(x, []int{1, 1, 1, 1}); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if acc := n.Accuracy(x, []int{0, 0, 0, 0}); acc != 0 {
		t.Errorf("accuracy = %v, want 0", acc)
	}
}

func TestLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 2), []int{5})
}

func TestAddProximalGrad(t *testing.T) {
	rng := stats.NewRNG(37)
	n := NewMLP(3, nil, 2, rng)
	ref := make([]float64, n.NumParams()) // zero reference
	n.ZeroGrads()
	n.AddProximalGrad(ref, 0.5)
	// With a zero reference, grad == mu * params.
	params := n.ParamsVector()
	grads := n.GradsVector()
	for i := range params {
		if math.Abs(grads[i]-0.5*params[i]) > 1e-12 {
			t.Fatalf("prox grad[%d] = %v, want %v", i, grads[i], 0.5*params[i])
		}
	}
	// mu = 0 is a no-op.
	n.ZeroGrads()
	n.AddProximalGrad(ref, 0)
	for _, g := range n.GradsVector() {
		if g != 0 {
			t.Fatal("mu=0 modified gradients")
		}
	}
}

func TestAddProximalGradLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(2, nil, 2, stats.NewRNG(1)).AddProximalGrad([]float64{1}, 0.1)
}
