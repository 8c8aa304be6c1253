package tensor

// Scalar reference implementations of the microkernels behind the
// matrix and im2col kernels: saxpy, the chunked 4×4 dot block and the
// strided row copy. On amd64 these are the fallback for the AVX2
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

// dot4x4ChunkedGeneric accumulates the 4×4 block d[i*ldd+j] of a chunked
// a·bᵀ product: a and b each hold four rows of stride ld and length k,
// and for every chunk [c0, min(c0+chunk, k)) in ascending order each
// element's dot product over the chunk is formed from +0 in ascending p
// and then added into d.
func dot4x4ChunkedGeneric(d []float64, ldd int, a, b []float64, ld, k, chunk int) {
	for c0 := 0; c0 < k; c0 += chunk {
		c1 := min(c0+chunk, k)
		b0, b1, b2, b3 := b[c0:c1], b[ld+c0:ld+c1], b[2*ld+c0:2*ld+c1], b[3*ld+c0:3*ld+c1]
		for i := 0; i < 4; i++ {
			ai := a[i*ld+c0 : i*ld+c1]
			_, _, _, _ = b0[len(ai)-1], b1[len(ai)-1], b2[len(ai)-1], b3[len(ai)-1]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			di := d[i*ldd : i*ldd+4]
			di[0] += s0
			di[1] += s1
			di[2] += s2
			di[3] += s3
		}
	}
}
