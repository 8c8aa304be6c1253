//go:build amd64

package tensor

// useAVX2 gates the vector microkernels, detected once at package
// init. The AVX2 path issues the identical IEEE multiply and add per
// element as the scalar loop (four lanes per instruction, each lane an
// independent accumulation chain), so enabling or disabling it never
// changes a single output bit — only throughput. The tests in
// axpy_amd64_test.go flip it to check exactly that.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	if c&osxsave == 0 || c&avxBit == 0 {
		return false
	}
	// The OS must have enabled both SSE and AVX register state
	// (XCR0 bits 1 and 2) for YMM registers to be usable.
	lo, _ := xgetbv0()
	if lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return b&avx2Bit != 0
}

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// axpy4avx2 handles n columns (n must be a multiple of 4) of the
// four-row update; the Go wrapper covers the ragged tail.
//
//go:noescape
func axpy4avx2(o0, o1, o2, o3, bp *float64, v *[4]float64, n int)

//go:noescape
func axpy1avx2(o, bp *float64, v float64, n int)

func axpy4(o0, o1, o2, o3, bp []float64, v0, v1, v2, v3 float64) {
	n := len(bp)
	if useAVX2 && n >= 8 {
		n4 := n &^ 3
		v := [4]float64{v0, v1, v2, v3}
		axpy4avx2(&o0[0], &o1[0], &o2[0], &o3[0], &bp[0], &v, n4)
		for j := n4; j < n; j++ {
			bv := bp[j]
			o0[j] += v0 * bv
			o1[j] += v1 * bv
			o2[j] += v2 * bv
			o3[j] += v3 * bv
		}
		return
	}
	axpy4generic(o0, o1, o2, o3, bp, v0, v1, v2, v3)
}

func axpy1(o, bp []float64, v float64) {
	n := len(bp)
	if useAVX2 && n >= 8 {
		n4 := n &^ 3
		axpy1avx2(&o[0], &bp[0], v, n4)
		for j := n4; j < n; j++ {
			o[j] += v * bp[j]
		}
		return
	}
	axpy1generic(o, bp, v)
}

// convfwd8avx2 and convfwd4avx2 are convRowsGeneric for stride 1 over
// eight or four columns.
//
//go:noescape
func convfwd8avx2(y *float64, ldy, nf int, w *float64, np int, x *float64, off *int, bias *float64, rows, xs, ys int)

//go:noescape
func convfwd4avx2(y *float64, ldy, nf int, w *float64, np int, x *float64, off *int, bias *float64, rows, xs, ys int)

func convRows(y []float64, ldy, nf int, w, x []float64, off []int, bias []float64, rows, n, xs, xc, ys int) {
	if !useAVX2 || xc != 1 || n < 4 {
		convRowsGeneric(y, ldy, nf, w, x, off, bias, rows, n, xs, xc, ys)
		return
	}
	// The kernels read and write exactly what the generic loop indexes
	// (off ascends, so its last entry is the farthest read); these
	// checks are their bounds.
	np := len(off)
	_, _, _, _ = y[(nf-1)*ldy+(rows-1)*ys+n-1], x[off[np-1]+(rows-1)*xs+n-1], w[4*np-1], bias[3]
	c := 0
	for ; c+8 <= n; c += 8 {
		convfwd8avx2(&y[c], ldy, nf, &w[0], np, &x[c], &off[0], &bias[0], rows, xs, ys)
	}
	if c+4 <= n {
		convfwd4avx2(&y[c], ldy, nf, &w[0], np, &x[c], &off[0], &bias[0], rows, xs, ys)
		c += 4
	}
	if c < n { // a ragged tail recomputes the last four columns
		convfwd4avx2(&y[n-4], ldy, nf, &w[0], np, &x[n-4], &off[0], &bias[0], rows, xs, ys)
	}
}

// convcolsavx2 is convColsGeneric over four columns and 4·blocks rows.
//
//go:noescape
func convcolsavx2(d *float64, ldd int, w *float64, ldw int, gp *float64, ldg, nf, blocks int)

func convCols(d []float64, ldd int, w []float64, ldw int, g []float64, ldg, nf, np, n int) {
	if !useAVX2 || np < 4 || n < 4 {
		convColsGeneric(d, ldd, w, ldw, g, ldg, nf, np, n)
		return
	}
	_, _, _ = d[(np-1)*ldd+n-1], w[(nf-1)*ldw+np-1], g[(nf-1)*ldg+n-1]
	for j := 0; j < n; j += 4 {
		j = min(j, n-4) // a ragged tail recomputes the last four columns
		convcolsavx2(&d[j], ldd, &w[0], ldw, &g[j], ldg, nf, np/4)
		if np%4 != 0 { // and a ragged last block the last four rows
			convcolsavx2(&d[(np-4)*ldd+j], ldd, &w[np-4], ldw, &g[j], ldg, nf, 1)
		}
	}
}

// convgrad4avx2 is convGrad4Generic for stride 1; rowSkip = xs − outW.
//
//go:noescape
func convgrad4avx2(d, gp, x *float64, off *int, batch, outH, outW, rowSkip, chw int)

func convGrad4(d, g, x []float64, off []int, batch, outH, outW, xs, xc, chw int) {
	if !useAVX2 || xc != 1 {
		convGrad4Generic(d, g, x, off, batch, outH, outW, xs, xc, chw)
		return
	}
	far := max(off[0], off[1], off[2], off[3])
	_, _, _ = d[15], g[batch*outH*outW*4-1], x[(batch-1)*chw+far+(outH-1)*xs+outW-1]
	convgrad4avx2(&d[0], &g[0], &x[0], &off[0], batch, outH, outW, xs-outW, chw)
}

//go:noescape
func copyRowsavx2(dst, src *float64, rows, n, dstStride, srcStride int)

func copyRows(dst, src []float64, rows, n, dstStride, srcStride int) {
	if useAVX2 && rows > 0 && n > 0 {
		_, _ = dst[(rows-1)*dstStride+n-1], src[(rows-1)*srcStride+n-1]
		copyRowsavx2(&dst[0], &src[0], rows, n, dstStride, srcStride)
		return
	}
	copyRowsGeneric(dst, src, rows, n, dstStride, srcStride)
}
