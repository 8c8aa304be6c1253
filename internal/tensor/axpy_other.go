//go:build !amd64

package tensor

func axpy4(o0, o1, o2, o3, bp []float64, v0, v1, v2, v3 float64) {
	axpy4generic(o0, o1, o2, o3, bp, v0, v1, v2, v3)
}

func axpy1(o, bp []float64, v float64) {
	axpy1generic(o, bp, v)
}

func copyRows(dst, src []float64, rows, n, dstStride, srcStride int) {
	copyRowsGeneric(dst, src, rows, n, dstStride, srcStride)
}

func dot4x4Chunked(d []float64, ldd int, a, b []float64, ld, k, chunk int) {
	dot4x4ChunkedGeneric(d, ldd, a, b, ld, k, chunk)
}
