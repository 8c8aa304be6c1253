package tensor

// Scalar reference implementations of the microkernels behind the
// matrix and convolution kernels: saxpy, the strided row copy, and the
// direct convolution's forward rows, 4×4 weight-gradient block and
// column-gradient block. On amd64 these are the fallback for the AVX2
// versions in axpy_amd64.s; elsewhere they are the only implementation.
// The vector path performs the same IEEE multiply and add per element,
// only several lanes at a time, so both produce bit-identical output —
// which path runs is purely a speed matter and never a correctness one.

// axpy4generic computes oX[j] += vX*bp[j] for four output rows sharing
// one streamed b row. All five slices must have equal length.
func axpy4generic(o0, o1, o2, o3, bp []float64, v0, v1, v2, v3 float64) {
	if len(bp) == 0 {
		return
	}
	_, _, _, _ = o0[len(bp)-1], o1[len(bp)-1], o2[len(bp)-1], o3[len(bp)-1]
	for j, bv := range bp {
		o0[j] += v0 * bv
		o1[j] += v1 * bv
		o2[j] += v2 * bv
		o3[j] += v3 * bv
	}
}

// axpy1generic computes o[j] += v*bp[j]. Both slices must have equal
// length.
func axpy1generic(o, bp []float64, v float64) {
	if len(bp) == 0 {
		return
	}
	_ = o[len(bp)-1]
	for j, bv := range bp {
		o[j] += v * bv
	}
}

// copyRowsGeneric copies rows spans of n floats, src advancing by
// srcStride and dst by dstStride per span.
func copyRowsGeneric(dst, src []float64, rows, n, dstStride, srcStride int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:r*dstStride+n], src[r*srcStride:r*srcStride+n])
	}
}

// convRowsGeneric is the direct forward over one panel of four filters
// (w is np × 4, see packPanels): for each of the first nf filters i,
// rows r and columns c < n, it writes
//
//	y[i*ldy + r*ys + c] = (+0 + Σ_p↑ w[4p+i]·x[off[p] + r*xs + c*xc]) + bias[i].
func convRowsGeneric(y []float64, ldy, nf int, w, x []float64, off []int, bias []float64, rows, n, xs, xc, ys int) {
	for i := 0; i < nf; i++ {
		for r := 0; r < rows; r++ {
			out := y[i*ldy+r*ys : i*ldy+r*ys+n]
			for c := range out {
				pos := r*xs + c*xc
				s := 0.0
				for p, o := range off {
					s += w[4*p+i] * x[o+pos]
				}
				out[c] = s + bias[i]
			}
		}
	}
}

// convColsGeneric writes the column gradient d = wᵀ·g of one image for
// rows p < np and columns j < n: each
//
//	d[p*ldd + j] = +0 + Σ_f↑ w[f*ldw + p]·g[f*ldg + j], f < nf,
//
// in MatMulTransA's order.
func convColsGeneric(d []float64, ldd int, w []float64, ldw int, g []float64, ldg, nf, np, n int) {
	for p := 0; p < np; p++ {
		row := d[p*ldd : p*ldd+n]
		for j := range row {
			s := 0.0
			for f := 0; f < nf; f++ {
				s += w[f*ldw+p] * g[f*ldg+j]
			}
			row[j] = s
		}
	}
}

// convGrad4Generic is the direct weight gradient of one 4 × 4 block: d
// holds four im2col rows (at image offsets off[0..3]) of four filters'
// accumulators, d[4k+i], and g one panel of four filters' output
// gradients, batch × outH·outW × 4. For each image in order, each
// element's sum over ascending output position of g·x is formed from +0
// and added into d.
func convGrad4Generic(d, g, x []float64, off []int, batch, outH, outW, xs, xc, chw int) {
	outHW := outH * outW
	for k, o := range off[:4] {
		for i := 0; i < 4; i++ {
			acc := d[4*k+i]
			for b := 0; b < batch; b++ {
				img, gb := x[b*chw+o:], g[b*outHW*4+i:]
				s := 0.0
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						s += gb[4*(oy*outW+ox)] * img[oy*xs+ox*xc]
					}
				}
				acc += s
			}
			d[4*k+i] = acc
		}
	}
}
