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

//go:noescape
func dot4x4chunkedavx2(d *float64, ldd int, a, b *float64, ld, k, chunk int)

func dot4x4Chunked(d []float64, ldd int, a, b []float64, ld, k, chunk int) {
	if useAVX2 {
		// The kernel reads and writes exactly what the generic loop
		// indexes; these checks are its bounds.
		_, _, _ = d[3*ldd+3], a[3*ld+k-1], b[3*ld+k-1]
		dot4x4chunkedavx2(&d[0], ldd, &a[0], &b[0], ld, k, chunk)
		return
	}
	dot4x4ChunkedGeneric(d, ldd, a, b, ld, k, chunk)
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
