package tensor

import (
	"math"
	"testing"
)

// specials are the values whose bits a vector kernel is most likely to
// get wrong: signed zeros, subnormals, a NaN, and magnitudes far apart.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-310, math.NaN(), 1e300, -1e-300, 1, -0.5}

// fillSpecial writes fill's pattern with a special value at every
// seventh position (offset by salt), so every kernel lane meets each one.
func fillSpecial(data []float64, salt uint64) {
	fill(data, salt)
	for i := int(salt % 7); i < len(data); i += 7 {
		data[i] = specials[(i/7+int(salt))%len(specials)]
	}
}

func mustBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// withAVX2 runs fn with the vector kernels forced on or off.
func withAVX2(t *testing.T, on bool, fn func()) {
	t.Helper()
	if on && !detectAVX2() {
		t.Skip("CPU has no AVX2")
	}
	prev := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = prev }()
	fn()
}

// TestAVX2AxpyMatchesGeneric proves the AVX2 saxpy kernels equal the
// scalar loops bit for bit over ragged lengths and special values.
func TestAVX2AxpyMatchesGeneric(t *testing.T) {
	for n := 0; n <= 37; n++ {
		bp := make([]float64, n)
		fillSpecial(bp, uint64(n))
		v := specials[n%len(specials)]
		var want, got [5][]float64
		for r := range want {
			want[r] = make([]float64, n)
			fillSpecial(want[r], uint64(n+r+1))
			got[r] = append([]float64(nil), want[r]...)
		}
		axpy4generic(want[0], want[1], want[2], want[3], bp, v, 1.5, -0.25, 3)
		axpy1generic(want[4], bp, v)
		withAVX2(t, true, func() {
			axpy4(got[0], got[1], got[2], got[3], bp, v, 1.5, -0.25, 3)
			axpy1(got[4], bp, v)
		})
		for r := range want {
			mustBits(t, got[r], want[r], "axpy")
		}
	}
}

// TestAVX2Dot4x4MatchesGeneric does the same for the chunked 4×4 dot
// kernel behind the conv weight gradient: ragged k, chunk 1, chunks that
// do not divide k, row strides wider than k.
func TestAVX2Dot4x4MatchesGeneric(t *testing.T) {
	for k := 1; k <= 23; k++ {
		for _, chunk := range []int{1, 2, 3, 5, k, k + 4} {
			for _, pad := range []int{0, 3} {
				ld, ldd := k+pad, 4+pad
				a, b := make([]float64, 3*ld+k), make([]float64, 3*ld+k)
				fillSpecial(a, uint64(k))
				fillSpecial(b, uint64(k+chunk))
				want := make([]float64, 3*ldd+4)
				fillSpecial(want, uint64(chunk))
				got := append([]float64(nil), want...)
				dot4x4ChunkedGeneric(want, ldd, a, b, ld, k, chunk)
				withAVX2(t, true, func() { dot4x4Chunked(got, ldd, a, b, ld, k, chunk) })
				mustBits(t, got, want, "dot4x4")
			}
		}
	}
}

// TestAVX2ChunkedProductMatchesScalar runs the whole conv weight-gradient
// kernel with the vector path on and off — ragged row and column counts,
// chunk 1, all-zero weights — and requires identical bits.
func TestAVX2ChunkedProductMatchesScalar(t *testing.T) {
	for _, tc := range []struct{ m, n, k, chunk int }{
		{4, 75, 4 * 144, 144}, // sim_tta conv1
		{8, 100, 32 * 4, 4},   // sim_tta conv2
		{5, 7, 23, 10},
		{9, 6, 40, 1},
		{4, 5, 9, 9},
		{3, 3, 8, 3},
	} {
		for _, zeroA := range []bool{false, true} {
			a, b := New(tc.m, tc.k), New(tc.n, tc.k)
			if !zeroA {
				fillSpecial(a.Data, uint64(tc.k))
			}
			fillSpecial(b.Data, uint64(tc.n))
			want := New(tc.m, tc.n)
			fill(want.Data, 4)
			got := want.Clone()
			withAVX2(t, false, func() { AddMatMulTransBChunked(want, a, b, tc.chunk) })
			withAVX2(t, true, func() { AddMatMulTransBChunked(got, a, b, tc.chunk) })
			mustBits(t, got.Data, want.Data, "AddMatMulTransBChunked")
		}
	}
}

// TestAVX2CopyRowsMatchesGeneric covers the strided row copy behind
// im2col: ragged span lengths and row counts, strides wider than spans.
func TestAVX2CopyRowsMatchesGeneric(t *testing.T) {
	for n := 1; n <= 13; n++ {
		for _, rows := range []int{1, 2, 5} {
			const gap = 3
			src := make([]float64, (rows-1)*(n+gap)+n)
			fillSpecial(src, uint64(n*rows))
			want := make([]float64, (rows-1)*(n+1)+n)
			fill(want, 9)
			got := append([]float64(nil), want...)
			copyRowsGeneric(want, src, rows, n, n+1, n+gap)
			withAVX2(t, true, func() { copyRows(got, src, rows, n, n+1, n+gap) })
			mustBits(t, got, want, "copyRows")
		}
	}
}
