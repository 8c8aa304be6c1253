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

// TestAVX2Dot4x4MatchesGeneric does the same for the 4×4 weight-gradient
// block: ragged output rows and widths down to one, one to three images,
// rows of the image wider than the output, offsets in any order.
func TestAVX2Dot4x4MatchesGeneric(t *testing.T) {
	for outW := 1; outW <= 13; outW++ {
		for _, outH := range []int{1, 2, 5} {
			for _, batch := range []int{1, 3} {
				xs := outW + 3
				chw := 2*xs*outH + 7
				off := []int{xs*outH + 5, 0, 3, 1}
				x := make([]float64, batch*chw)
				fillSpecial(x, uint64(outW*outH))
				g := make([]float64, batch*outH*outW*4)
				fillSpecial(g, uint64(outW+batch))
				want := make([]float64, 16)
				fillSpecial(want, uint64(outH))
				got := append([]float64(nil), want...)
				convGrad4Generic(want, g, x, off, batch, outH, outW, xs, 1, chw)
				withAVX2(t, true, func() { convGrad4(got, g, x, off, batch, outH, outW, xs, 1, chw) })
				mustBits(t, got, want, "convGrad4")
			}
		}
	}
}

// TestAVX2ConvRowsMatchesGeneric covers the forward kernels: widths that
// take the 8- and 4-column blocks and a recomputed ragged tail, one to
// four live filters, one and several output rows, short and long p.
func TestAVX2ConvRowsMatchesGeneric(t *testing.T) {
	for n := 4; n <= 21; n++ {
		for nf := 1; nf <= 4; nf++ {
			for _, np := range []int{1, 7} {
				const rows, ldy = 3, 80
				xs := n + 2
				off := make([]int, np)
				for p := range off {
					off[p] = p * 3
				}
				x := make([]float64, off[np-1]+(rows-1)*xs+n)
				fillSpecial(x, uint64(n*nf))
				w := make([]float64, 4*np)
				fillSpecial(w, uint64(np+nf))
				bias := []float64{0.5, -1, math.Copysign(0, -1), 3}
				want := make([]float64, (nf-1)*ldy+(rows-1)*n+n)
				fill(want, 7)
				got := append([]float64(nil), want...)
				convRowsGeneric(want, ldy, nf, w, x, off, bias, rows, n, xs, 1, n)
				withAVX2(t, true, func() { convRows(got, ldy, nf, w, x, off, bias, rows, n, xs, 1, n) })
				mustBits(t, got, want, "convRows")
			}
		}
	}
}

// TestAVX2ConvColsMatchesGeneric covers the column-gradient kernel: row
// and column counts on and off a multiple of four, one and several
// filters.
func TestAVX2ConvColsMatchesGeneric(t *testing.T) {
	for np := 4; np <= 11; np++ {
		for n := 4; n <= 9; n++ {
			for _, nf := range []int{1, 8} {
				ldw, ldg := np+1, n+2
				w := make([]float64, nf*ldw)
				fillSpecial(w, uint64(np))
				g := make([]float64, nf*ldg)
				fillSpecial(g, uint64(n+nf))
				want := make([]float64, np*n)
				fill(want, 3)
				got := append([]float64(nil), want...)
				convColsGeneric(want, n, w, ldw, g, ldg, nf, np, n)
				withAVX2(t, true, func() { convCols(got, n, w, ldw, g, ldg, nf, np, n) })
				mustBits(t, got, want, "convCols")
			}
		}
	}
}

// TestAVX2ChunkedProductMatchesScalar runs the three direct convolution
// drivers with the vector path on and off over the weight-gradient
// shapes — sim_tta's layers, ragged panels and blocks, stride 2, padding,
// an all-zero gradient — and requires identical bits.
func TestAVX2ChunkedProductMatchesScalar(t *testing.T) {
	for ci, tc := range gradCases {
		x, gradOut := gradInputs(tc.g, tc.f, tc.batch, tc.zeroGrads, uint64(ci))
		fillSpecial(x.Data, uint64(ci))
		x = padBatch(x, tc.g)
		g := tc.g.Padded()
		w := New(tc.f, g.ColRows())
		fillSpecial(w.Data, uint64(tc.f))
		bias := make([]float64, tc.f)
		fill(bias, 2)
		run := func(on bool) (y, dw, dx *Dense) {
			var s Scratch
			y, dw, dx = New(x.Rows(), gradOut.Cols()), New(tc.f, g.ColRows()), New(x.Rows(), tc.g.imageSize())
			fill(dw.Data, 4)
			withAVX2(t, on, func() {
				ConvForwardInto(y, x, w, bias, g, &s)
				ConvWeightGradAdd(dw, gradOut, x, g, &s)
				ConvInputGradInto(dx, gradOut, w, tc.g, &s)
			})
			return y, dw, dx
		}
		wantY, wantDW, wantDX := run(false)
		gotY, gotDW, gotDX := run(true)
		mustBits(t, gotY.Data, wantY.Data, "ConvForwardInto")
		mustBits(t, gotDW.Data, wantDW.Data, "ConvWeightGradAdd")
		mustBits(t, gotDX.Data, wantDX.Data, "ConvInputGradInto")
	}
}

// TestAVX2CopyRowsMatchesGeneric covers the strided row copy behind
// im2col, padding and the wide forward's gather: ragged span lengths and
// row counts, strides wider than spans.
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
