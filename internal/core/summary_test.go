package core

import (
	"math"
	"testing"

	"haccs/internal/dataset"
	"haccs/internal/stats"
)

func makeClientSet(t *testing.T, major int, n int) *dataset.Dataset {
	t.Helper()
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 8, Width: 8, Classes: 5, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 11)
	ld := dataset.MajorityNoise(major, 0.75, []int{(major + 1) % 5, (major + 2) % 5, (major + 3) % 5}, dataset.DefaultMajorityFractions)
	rng := stats.NewRNG(uint64(major)*31 + uint64(n))
	return gen.Generate(ld.Draw(n, rng), rng)
}

func TestSummaryKindString(t *testing.T) {
	if PY.String() != "P(y)" || PXY.String() != "P(X|y)" {
		t.Errorf("kind strings %q %q", PY.String(), PXY.String())
	}
}

func TestSummarizePY(t *testing.T) {
	d := makeClientSet(t, 2, 400)
	s := Summarize(d, PY, 0)
	if s.Kind != PY || s.Label == nil || s.Feature != nil {
		t.Fatal("malformed PY summary")
	}
	if s.Label.Bins() != 5 {
		t.Errorf("PY bins = %d", s.Label.Bins())
	}
	p := s.Label.Normalize()
	if stats.ArgMaxFloat(p) != 2 {
		t.Errorf("majority label not dominant: %v", p)
	}
}

func TestSummarizePXY(t *testing.T) {
	d := makeClientSet(t, 1, 200)
	s := Summarize(d, PXY, 16)
	if s.Kind != PXY || s.Feature == nil || s.Label != nil {
		t.Fatal("malformed PXY summary")
	}
	if len(s.Feature) != 5 {
		t.Fatalf("PXY classes = %d", len(s.Feature))
	}
	if s.Feature[1] == nil {
		t.Error("majority class histogram missing")
	}
	// The class never drawn must be nil: label 0 is not in the noise set
	// of major=1 ({2,3,4}).
	if s.Feature[0] != nil {
		t.Error("absent class has a histogram")
	}
}

func TestSummarizeDefaultBins(t *testing.T) {
	d := makeClientSet(t, 0, 50)
	s := Summarize(d, PXY, 0)
	for _, h := range s.Feature {
		if h != nil && h.Bins() != DefaultFeatureBins {
			t.Errorf("default bins = %d", h.Bins())
		}
	}
}

func TestSummaryBytes(t *testing.T) {
	d := makeClientSet(t, 0, 100)
	py := Summarize(d, PY, 0)
	pxy := Summarize(d, PXY, 32)
	if py.Bytes() != 8*5 {
		t.Errorf("PY bytes = %d", py.Bytes())
	}
	// PXY is Θ(c·p): strictly larger than PY (paper §IV-A).
	if pxy.Bytes() <= py.Bytes() {
		t.Errorf("PXY (%d bytes) not larger than PY (%d bytes)", pxy.Bytes(), py.Bytes())
	}
}

func TestNoisedZeroEpsilonIsIdentity(t *testing.T) {
	d := makeClientSet(t, 0, 100)
	s := Summarize(d, PY, 0)
	n := s.Noised(0, stats.NewRNG(1))
	for i := range s.Label.Counts {
		if n.Label.Counts[i] != s.Label.Counts[i] {
			t.Fatal("eps=0 modified summary")
		}
	}
}

func TestNoisedDoesNotMutateOriginal(t *testing.T) {
	d := makeClientSet(t, 0, 100)
	s := Summarize(d, PY, 0)
	before := append([]float64(nil), s.Label.Counts...)
	_ = s.Noised(0.1, stats.NewRNG(2))
	for i := range before {
		if s.Label.Counts[i] != before[i] {
			t.Fatal("Noised mutated the original summary")
		}
	}
}

func TestNoisedPXY(t *testing.T) {
	d := makeClientSet(t, 1, 100)
	s := Summarize(d, PXY, 8)
	n := s.Noised(0.5, stats.NewRNG(3))
	if n.Feature[0] != nil {
		t.Error("noise materialized an absent class")
	}
	changed := false
	for c := range s.Feature {
		if s.Feature[c] == nil {
			continue
		}
		for i := range s.Feature[c].Counts {
			if n.Feature[c].Counts[i] != s.Feature[c].Counts[i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("noise did not alter any bin")
	}
}

func TestDistanceSameClientZero(t *testing.T) {
	d := makeClientSet(t, 3, 300)
	for _, kind := range []SummaryKind{PY, PXY} {
		s := Summarize(d, kind, 16)
		if dist := Distance(s, s); dist > 1e-12 {
			t.Errorf("%v self distance %v", kind, dist)
		}
	}
}

func TestDistanceSeparatesMajorities(t *testing.T) {
	a1 := Summarize(makeClientSet(t, 0, 400), PY, 0)
	a2 := Summarize(makeClientSet(t, 0, 500), PY, 0)
	b := Summarize(makeClientSet(t, 4, 400), PY, 0)
	same := Distance(a1, a2)
	diff := Distance(a1, b)
	if same >= diff {
		t.Errorf("same-majority distance %v >= cross-majority %v", same, diff)
	}
	if diff < 0.3 {
		t.Errorf("cross-majority distance %v suspiciously small", diff)
	}
}

func TestDistanceKindMismatchPanics(t *testing.T) {
	d := makeClientSet(t, 0, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Distance(Summarize(d, PY, 0), Summarize(d, PXY, 8))
}

// TestDistanceMatrixSymmetricBounded pins DistanceMatrix to the
// reference Distance bit for bit, for both summary kinds, clean and
// noised, with an all-negative histogram and absent classes in the
// roster. 65 clients make 2080 pairs, past cluster.FromFunc's serial
// threshold, so with more than one processor the rows are built in
// bands.
func TestDistanceMatrixSymmetricBounded(t *testing.T) {
	var sets []*dataset.Dataset
	for i := 0; i < 65; i++ {
		sets = append(sets, makeClientSet(t, i%5, 40+i))
	}
	for _, kind := range []SummaryKind{PY, PXY} {
		for _, eps := range []float64{0, 1, 0.05} {
			sums := BuildSummaries(sets, kind, 8, eps, stats.NewRNG(6))
			if kind == PY {
				sums[0].Label = &stats.Histogram{Counts: []float64{-1, -2, -0.5, -3, -1}}
			} else {
				// Every client lacks one of the five classes already
				// (MajorityNoise draws four); client 1 loses another.
				sums[0].Feature[0] = &stats.Histogram{Counts: []float64{-1, -2, -0.5, -3, -1, -4, -2, -1}}
				sums[1].Feature[1] = nil
			}
			m := DistanceMatrix(sums)
			for i := range sums {
				for j := range sums {
					d := m.At(i, j)
					if d < 0 || d > 1 {
						t.Fatalf("%v eps=%v: distance (%d,%d) = %v outside [0,1]", kind, eps, i, j, d)
					}
					if want := Distance(sums[i], sums[j]); math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("%v eps=%v: matrix (%d,%d) = %v, Distance = %v", kind, eps, i, j, d, want)
					}
				}
			}
		}
	}

	// A histogram whose width differs from the population's panics.
	for _, sums := range [][]Summary{
		{{Kind: PY, Label: &stats.Histogram{Counts: []float64{1, 2, 3}}},
			{Kind: PY, Label: &stats.Histogram{Counts: []float64{1, 2}}}},
		{{Kind: PXY, Feature: []*stats.Histogram{{Counts: []float64{1, 2, 3}}, nil}},
			{Kind: PXY, Feature: []*stats.Histogram{{Counts: []float64{1, 2}}, {Counts: []float64{4, 5, 6}}}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: no panic on a width mismatch", sums[0].Kind)
				}
			}()
			DistanceMatrix(sums)
		}()
	}
}

func TestBuildSummaries(t *testing.T) {
	sets := []*dataset.Dataset{makeClientSet(t, 0, 100), makeClientSet(t, 1, 100)}
	sums := BuildSummaries(sets, PY, 0, 0, stats.NewRNG(4))
	if len(sums) != 2 || sums[0].Kind != PY {
		t.Fatal("BuildSummaries malformed output")
	}
	noised := BuildSummaries(sets, PY, 0, 0.1, stats.NewRNG(5))
	diff := false
	for i := range noised[0].Label.Counts {
		if noised[0].Label.Counts[i] != sums[0].Label.Counts[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("eps>0 did not add noise")
	}
}
