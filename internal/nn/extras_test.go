package nn

import (
	"math"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

func TestSigmoidForwardKnown(t *testing.T) {
	s := NewSigmoid()
	y := s.Forward(tensor.FromSlice([]float64{0, 100, -100}, 1, 3))
	if math.Abs(y.Data[0]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", y.Data[0])
	}
	if y.Data[1] < 0.999 || y.Data[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", y.Data)
	}
}

func TestTanhForwardKnown(t *testing.T) {
	th := NewTanh()
	y := th.Forward(tensor.FromSlice([]float64{0, 2}, 1, 2))
	if y.Data[0] != 0 || math.Abs(y.Data[1]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh forward %v", y.Data)
	}
}

func TestGradientCheckSigmoidTanhNetwork(t *testing.T) {
	rng := stats.NewRNG(31)
	n := NewNetwork(
		NewDense(5, 7, rng), NewSigmoid(),
		NewDense(7, 6, rng), NewTanh(),
		NewDense(6, 3, rng),
	)
	x := tensor.New(4, 5)
	x.RandNormal(0, 1, rng)
	checkGradients(t, n, x, []int{0, 1, 2, 0}, 1e-6)
}

func TestGradientCheckAvgPoolNetwork(t *testing.T) {
	rng := stats.NewRNG(32)
	g := tensor.ConvGeom{Channels: 2, Height: 6, Width: 6, Kernel: 2, Stride: 2, Pad: 0}
	n := NewNetwork(
		NewAvgPool2D(g),
		NewDense(2*3*3, 3, rng),
	)
	x := tensor.New(3, 72)
	x.RandNormal(0, 1, rng)
	checkGradients(t, n, x, []int{0, 2, 1}, 1e-6)
}

func TestAvgPoolForwardKnown(t *testing.T) {
	g := tensor.ConvGeom{Channels: 1, Height: 4, Width: 4, Kernel: 2, Stride: 2, Pad: 0}
	p := NewAvgPool2D(g)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 16)
	y := p.Forward(x)
	want := []float64{2.5, 6.5, 10.5, 14.5}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-12 {
			t.Errorf("avg pool out[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestAvgPoolBackwardDistributesEvenly(t *testing.T) {
	g := tensor.ConvGeom{Channels: 1, Height: 2, Width: 2, Kernel: 2, Stride: 2, Pad: 0}
	p := NewAvgPool2D(g)
	p.Forward(tensor.New(1, 4))
	grad := p.Backward(tensor.FromSlice([]float64{4}, 1, 1))
	for i, v := range grad.Data {
		if v != 1 {
			t.Errorf("grad[%d] = %v, want 1", i, v)
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(0.5, stats.NewRNG(33))
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y := d.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("inference-mode dropout altered input")
		}
	}
}

func TestDropoutTrainingDropsAndScales(t *testing.T) {
	d := NewDropout(0.5, stats.NewRNG(34))
	d.SetTraining(true)
	x := tensor.New(1, 10000)
	x.Fill(1)
	y := d.Forward(x)
	zeros := 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1 / (1 - 0.5)
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	frac := float64(zeros) / float64(len(y.Data))
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("dropped fraction %v, want ~0.5", frac)
	}
	// Expected value preserved (inverted dropout).
	if mean := y.Sum() / float64(y.Size()); math.Abs(mean-1) > 0.05 {
		t.Errorf("mean activation %v, want ~1", mean)
	}
	// Backward routes gradients through the same mask.
	g := d.Backward(x.Clone())
	for i, v := range g.Data {
		if (y.Data[i] == 0) != (v == 0) {
			t.Fatal("backward mask inconsistent with forward")
		}
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1, stats.NewRNG(1))
}

func TestExtraLayersCloneAndName(t *testing.T) {
	g := tensor.ConvGeom{Channels: 1, Height: 4, Width: 4, Kernel: 2, Stride: 2, Pad: 0}
	layers := []Layer{NewSigmoid(), NewTanh(), NewDropout(0.3, stats.NewRNG(1)), NewAvgPool2D(g)}
	for _, l := range layers {
		c := l.Clone()
		if c.Name() != l.Name() {
			t.Errorf("clone name %q != %q", c.Name(), l.Name())
		}
		if len(l.Params()) != 0 || len(l.Grads()) != 0 {
			t.Errorf("%s unexpectedly has parameters", l.Name())
		}
	}
	// Dropout clones come back in inference mode.
	d := NewDropout(0.9, stats.NewRNG(2))
	d.SetTraining(true)
	clone := d.Clone().(*Dropout)
	x := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	y := clone.Forward(x)
	for i := range x.Data {
		if y.Data[i] != 1 {
			t.Fatal("cloned dropout not in inference mode")
		}
	}
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
