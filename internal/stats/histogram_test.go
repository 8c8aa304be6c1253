package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLabelHistogramCounts(t *testing.T) {
	h := NewLabelHistogram(4)
	for _, l := range []int{0, 1, 1, 3, 3, 3} {
		h.AddLabel(l)
	}
	want := []float64{1, 2, 0, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %v, want %v", i, h.Counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("total = %v, want 6", h.Total())
	}
}

func TestRangeHistogramBinning(t *testing.T) {
	h := NewRangeHistogram(4, 0, 1)
	for _, v := range []float64{0, 0.1, 0.3, 0.55, 0.99} {
		h.AddValue(v)
	}
	want := []float64{2, 1, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %v, want %v", i, h.Counts[i], w)
		}
	}
}

func TestRangeHistogramClampsOutOfRange(t *testing.T) {
	h := NewRangeHistogram(3, 0, 1)
	h.AddValue(-5)
	h.AddValue(7)
	if h.Counts[0] != 1 || h.Counts[2] != 1 {
		t.Errorf("out-of-range values not clamped: %v", h.Counts)
	}
}

func TestNormalizeSumsToOne(t *testing.T) {
	h := NewLabelHistogram(5)
	for i := 0; i < 37; i++ {
		h.AddLabel(i % 5)
	}
	p := h.Normalize()
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Errorf("negative probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("normalized sum = %v, want 1", sum)
	}
}

func TestNormalizeEmptyIsUniform(t *testing.T) {
	h := NewLabelHistogram(4)
	p := h.Normalize()
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("empty histogram normalize = %v, want uniform", p)
		}
	}
}

func TestNormalizeClampsNegative(t *testing.T) {
	h := &Histogram{Counts: []float64{-3, 1, 1}}
	p := h.Normalize()
	if p[0] != 0 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Errorf("negative bins not clamped: %v", p)
	}
	// AmplitudeInto is √ of Normalize over the counts padded with zeros
	// to the buffer's width, bit for bit — through the clamp and the
	// uniform fallback alike.
	for _, tc := range []struct {
		name   string
		counts []float64
		width  int
	}{
		{"empty", nil, 4},
		{"all-negative", []float64{-1, -2, 0}, 3},
		{"mixed-sign", []float64{-3, 1, 2, 0.1}, 4},
		{"shorter than dst", []float64{2, 5}, 4},
	} {
		padded := make([]float64, tc.width)
		copy(padded, tc.counts)
		into := make([]float64, tc.width)
		AmplitudeInto(into, tc.counts)
		for i, p := range (&Histogram{Counts: padded}).Normalize() {
			want := math.Float64bits(math.Sqrt(p))
			if math.Float64bits(into[i]) != want {
				t.Errorf("%s: bin %d = %v, want √%v", tc.name, i, into[i], p)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	h := NewLabelHistogram(2)
	h.AddLabel(0)
	c := h.Clone()
	c.AddLabel(1)
	if h.Counts[1] != 0 {
		t.Error("Clone shares backing array")
	}
}

func TestHellingerKnownValues(t *testing.T) {
	tests := []struct {
		p, q []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 0},
		{[]float64{1, 0}, []float64{0, 1}, 1},
		{[]float64{0.5, 0.5}, []float64{0.5, 0.5}, 0},
		// H^2 = 1 - sum sqrt(p_i q_i) = 1 - sqrt(0.5) for (1,0) vs uniform.
		{[]float64{1, 0}, []float64{0.5, 0.5}, math.Sqrt(1 - math.Sqrt(0.5))},
	}
	for _, tc := range tests {
		got := Hellinger(tc.p, tc.q)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Hellinger(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

// randomSimplex maps arbitrary quick-generated non-negative values onto a
// probability simplex point.
func randomSimplex(raw []float64, dim int) []float64 {
	p := make([]float64, dim)
	total := 0.0
	for i := 0; i < dim; i++ {
		v := 0.0
		if i < len(raw) {
			v = math.Abs(raw[i])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			// Bound the magnitude so the sum cannot overflow to +Inf.
			v = math.Mod(v, 1000)
		}
		p[i] = v
		total += v
	}
	if total == 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		for i := range p {
			p[i] = 1.0 / float64(dim)
		}
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

func TestHellingerPropertyBoundsAndSymmetry(t *testing.T) {
	f := func(a, b [6]float64) bool {
		p := randomSimplex(a[:], 6)
		q := randomSimplex(b[:], 6)
		d1 := Hellinger(p, q)
		d2 := Hellinger(q, p)
		if d1 < 0 || d1 > 1 {
			return false
		}
		if math.Abs(d1-d2) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHellingerPropertyIdentity(t *testing.T) {
	f := func(a [6]float64) bool {
		p := randomSimplex(a[:], 6)
		return Hellinger(p, p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHellingerPropertyTriangleInequality(t *testing.T) {
	// Hellinger distance is a true metric; spot-check the triangle
	// inequality on random simplex points.
	f := func(a, b, c [5]float64) bool {
		p := randomSimplex(a[:], 5)
		q := randomSimplex(b[:], 5)
		r := randomSimplex(c[:], 5)
		return Hellinger(p, r) <= Hellinger(p, q)+Hellinger(q, r)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHellingerMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	Hellinger([]float64{1}, []float64{0.5, 0.5})
}

func TestAverageHellinger(t *testing.T) {
	a := NewLabelHistogram(2)
	a.AddLabel(0)
	b := NewLabelHistogram(2)
	b.AddLabel(1)
	// Identical sets -> 0.
	if d := AverageHellinger([]*Histogram{a, b}, []*Histogram{a, b}); d != 0 {
		t.Errorf("identical sets distance %v, want 0", d)
	}
	// Opposite singletons -> 1.
	if d := AverageHellinger([]*Histogram{a}, []*Histogram{b}); math.Abs(d-1) > 1e-12 {
		t.Errorf("disjoint singletons distance %v, want 1", d)
	}
	// Missing on one side counts as max distance for that label.
	if d := AverageHellinger([]*Histogram{a, nil}, []*Histogram{a, b}); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("half-missing distance %v, want 0.5", d)
	}
	// Missing on both sides contributes zero.
	if d := AverageHellinger([]*Histogram{a, nil}, []*Histogram{a, nil}); d != 0 {
		t.Errorf("both-missing distance %v, want 0", d)
	}
}

func TestAverageHellingerEmptySets(t *testing.T) {
	if d := AverageHellinger(nil, nil); d != 0 {
		t.Errorf("empty sets distance %v, want 0", d)
	}
}

func TestClamp(t *testing.T) {
	h := &Histogram{Counts: []float64{-1, 2, -0.5}}
	h.Clamp()
	if h.Counts[0] != 0 || h.Counts[1] != 2 || h.Counts[2] != 0 {
		t.Errorf("Clamp result %v", h.Counts)
	}
}

func TestLaplaceMechanismPreservesShape(t *testing.T) {
	rng := NewRNG(99)
	h := NewLabelHistogram(10)
	// 1000 points on label 3, as in the paper's Fig. 3 setting.
	for i := 0; i < 1000; i++ {
		h.AddLabel(3)
	}
	noised := LaplaceMechanism(h, 0.1, rng)
	if len(noised.Counts) != 10 {
		t.Fatalf("noised bins = %d", len(noised.Counts))
	}
	// With eps=0.1 the noise stddev is ~14, far below the 1000-count
	// signal: the dominant bin must survive.
	if ArgMaxFloat(noised.Counts) != 3 {
		t.Errorf("eps=0.1 noise destroyed a 1000-count signal: %v", noised.Counts)
	}
	// Original must be untouched.
	if h.Counts[3] != 1000 {
		t.Error("LaplaceMechanism mutated its input")
	}
}

func TestLaplaceMechanismSmallEpsilonDrownsSignal(t *testing.T) {
	// Mirrors the paper's Fig. 3: eps=0.005 makes a 1000-count histogram
	// unrecognizable. Check that noise magnitude dominates the bins often.
	rng := NewRNG(100)
	h := NewLabelHistogram(10)
	for i := 0; i < 100; i++ {
		h.AddLabel(3)
	}
	destroyed := 0
	trials := 200
	for i := 0; i < trials; i++ {
		noised := LaplaceMechanism(h, 0.005, rng)
		if ArgMaxFloat(noised.Counts) != 3 {
			destroyed++
		}
	}
	if destroyed < trials/2 {
		t.Errorf("eps=0.005 preserved the signal in %d/%d trials; expected heavy destruction", trials-destroyed, trials)
	}
}

func TestLaplaceMechanismPanicsOnBadEpsilon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eps <= 0")
		}
	}()
	LaplaceMechanism(NewLabelHistogram(2), 0, NewRNG(1))
}
