package core

import (
	"math"
	"testing"

	"haccs/internal/cluster"
	"haccs/internal/dataset"
	"haccs/internal/nn"
	"haccs/internal/stats"
)

func TestCosineDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 0},
		{[]float64{1, 0}, []float64{-1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0.5},
		{[]float64{2, 0}, []float64{5, 0}, 0}, // scale invariant
		{[]float64{0, 0}, []float64{1, 0}, 0.5},
	}
	for _, c := range cases {
		got := CosineDistance(c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CosineDistance(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosineDistanceSymmetricBounded(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, 8)
		b := make([]float64, 8)
		for i := range a {
			a[i] = rng.Normal(0, 1)
			b[i] = rng.Normal(0, 1)
		}
		d1, d2 := CosineDistance(a, b), CosineDistance(b, a)
		if d1 < 0 || d1 > 1 {
			t.Fatalf("distance %v out of [0,1]", d1)
		}
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatal("asymmetric")
		}
		if CosineDistance(a, a) > 1e-12 {
			t.Fatal("self distance nonzero")
		}
	}
}

func TestCosineDistanceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CosineDistance([]float64{1}, []float64{1, 2})
}

func TestGradientSummaryNormalized(t *testing.T) {
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 6, Width: 6, Classes: 4, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 1)
	rng := stats.NewRNG(2)
	d := gen.Generate([]int{0, 1, 2, 3, 0, 1}, rng)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{8}, Classes: 4}
	model := arch.Build(stats.NewRNG(3))
	g := GradientSummary(model, model.ParamsVector(), d)
	if len(g) != model.NumParams() {
		t.Fatalf("gradient length %d, want %d", len(g), model.NumParams())
	}
	norm := 0.0
	for _, v := range g {
		norm += v * v
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Errorf("gradient not unit norm: %v", math.Sqrt(norm))
	}
}

func TestGradientSummariesClusterByMajority(t *testing.T) {
	// Clients sharing a majority label have similar descent directions
	// at a common model — the premise of gradient-based clustered FL.
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 6, Width: 6, Classes: 6, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 5)
	rng := stats.NewRNG(6)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{16}, Classes: 6}
	model := arch.Build(stats.NewRNG(7))
	params := model.ParamsVector()
	var grads [][]float64
	var truth []int
	for major := 0; major < 3; major++ {
		for k := 0; k < 3; k++ {
			ld := dataset.MajorityNoise(major, 0.75, []int{(major + 3) % 6, (major + 4) % 6, (major + 5) % 6}, dataset.DefaultMajorityFractions)
			d := gen.Generate(ld.Draw(300, rng), rng)
			grads = append(grads, GradientSummary(model, params, d))
			truth = append(truth, major)
		}
	}
	labels := ClusterGradients(grads)
	if cluster.NumClusters(labels) != 3 {
		t.Fatalf("gradient clustering found %d clusters, want 3: %v", cluster.NumClusters(labels), labels)
	}
	if cluster.ExactRecovery(labels, truth) != 1 {
		t.Errorf("gradient clusters do not match majority groups: %v", labels)
	}
}

func TestClusterGradientsSingletonizesNoise(t *testing.T) {
	// Three well-aligned directions plus one opposite outlier.
	grads := [][]float64{
		{1, 0.01, 0}, {1, -0.01, 0}, {1, 0, 0.01},
		{-1, 0, 0},
	}
	labels := ClusterGradients(grads)
	for i, l := range labels {
		if l == cluster.Noise {
			t.Fatalf("client %d left as noise", i)
		}
	}
	if labels[3] == labels[0] {
		t.Error("outlier merged into the aligned cluster")
	}
}
