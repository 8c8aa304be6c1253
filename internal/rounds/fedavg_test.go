package rounds

import (
	"fmt"
	"math"
	"testing"
)

// naiveFedAvg is FedAvg as written before blocking: one sweep of the
// whole output per result, in result order — the oracle FedAvgInto must
// match bit for bit.
func naiveFedAvg(results []Result) []float64 {
	total := 0
	for _, r := range results {
		total += r.NumSamples
	}
	out := make([]float64, len(results[0].Params))
	for _, r := range results {
		w := float64(r.NumSamples) / float64(total)
		for i, v := range r.Params {
			out[i] += w * v
		}
	}
	return out
}

// fedAvgSpecials are the values whose bits a reordered or skipped add
// would disturb.
var fedAvgSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // NaN with a payload
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fedAvgResults builds k results of dimension dim from seed: mostly
// ordinary values, with one in eight coordinates a special value.
func fedAvgResults(seed uint64, dim, k int, samples []byte) []Result {
	results := make([]Result, k)
	x := seed
	for j := range results {
		p := make([]float64, dim)
		for i := range p {
			x = splitmix(x)
			if x%8 == 0 {
				p[i] = fedAvgSpecials[(x>>8)%uint64(len(fedAvgSpecials))]
			} else {
				p[i] = float64(int64(x>>11)-1<<52) / (1 << 40)
			}
		}
		n := 1 + j*7
		if j < len(samples) {
			n = 1 + int(samples[j])
		}
		results[j] = Result{Params: p, NumSamples: n}
	}
	return results
}

// checkFedAvgMatchesNaive runs FedAvgInto over a destination full of
// stale NaNs and compares every coordinate with the oracle by bits.
func checkFedAvgMatchesNaive(t *testing.T, results []Result) {
	t.Helper()
	want := naiveFedAvg(results)
	got := make([]float64, len(want))
	for i := range got {
		got[i] = math.Float64frombits(0x7ff4dead0000beef)
	}
	FedAvgInto(got, results)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dim %d, k %d: coordinate %d is %016x, the per-result loop gives %016x",
				len(want), len(results), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestFedAvgMatchesNaive: the cache-blocked FedAvgInto gives every
// coordinate the same bits as one sweep per result, at dimensions on
// both sides of each block boundary, for one, a few and eight results,
// through signed zeros, subnormals, infinities and NaNs.
func TestFedAvgMatchesNaive(t *testing.T) {
	const b = fedAvgBlock
	for _, dim := range []int{1, b - 1, b, b + 1, 3*b + 7, 65536} {
		for _, k := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("dim=%d/k=%d", dim, k), func(t *testing.T) {
				checkFedAvgMatchesNaive(t, fedAvgResults(uint64(dim*31+k), dim, k, nil))
			})
		}
	}
}

// FuzzFedAvgMatchesNaive searches seeds, dimensions up to three blocks
// and a bit, result counts and sample weights for a coordinate where the
// blocked FedAvgInto and the per-result loop disagree.
func FuzzFedAvgMatchesNaive(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint8(0), []byte{0})
	f.Add(uint64(2), uint16(fedAvgBlock), uint8(2), []byte{9, 0, 200})
	f.Add(uint64(3), uint16(fedAvgBlock+1), uint8(7), []byte{})
	f.Add(uint64(4), uint16(3*fedAvgBlock+7), uint8(4), []byte{255, 255, 1})
	f.Fuzz(func(t *testing.T, seed uint64, dim uint16, k uint8, samples []byte) {
		d := int(dim)%(3*fedAvgBlock+8) + 1
		checkFedAvgMatchesNaive(t, fedAvgResults(seed, d, int(k)%8+1, samples))
	})
}

func TestFedAvgWeighted(t *testing.T) {
	results := []Result{
		{Params: []float64{1, 2}, NumSamples: 1},
		{Params: []float64{4, 5}, NumSamples: 3},
	}
	avg := FedAvg(results)
	want := []float64{0.25*1 + 0.75*4, 0.25*2 + 0.75*5}
	for i := range want {
		if math.Abs(avg[i]-want[i]) > 1e-12 {
			t.Errorf("FedAvg[%d] = %v, want %v", i, avg[i], want[i])
		}
	}
}

func TestFedAvgSingleClientIdentity(t *testing.T) {
	r := Result{Params: []float64{3, 1, 4}, NumSamples: 7}
	avg := FedAvg([]Result{r})
	for i := range r.Params {
		if avg[i] != r.Params[i] {
			t.Fatal("single-client FedAvg not identity")
		}
	}
}

func TestFedAvgValidation(t *testing.T) {
	cases := [][]Result{
		{},
		{{Params: []float64{1}, NumSamples: 1}, {Params: []float64{1, 2}, NumSamples: 1}},
		{{Params: []float64{1}, NumSamples: 0}},
	}
	for i, rs := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			FedAvg(rs)
		}()
	}
}

// TestFedAvgIntoMatchesFedAvg checks the in-place aggregation against
// the allocating one, including overwrite of stale destination content.
func TestFedAvgIntoMatchesFedAvg(t *testing.T) {
	results := []Result{
		{Params: []float64{1, -2, 3}, NumSamples: 2},
		{Params: []float64{0.5, 4, -1}, NumSamples: 5},
		{Params: []float64{2, 2, 2}, NumSamples: 1},
	}
	want := FedAvg(results)
	dst := []float64{99, -99, 99} // stale garbage must be overwritten
	FedAvgInto(dst, results)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("FedAvgInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}
