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

func convRows(y []float64, ldy, nf int, w, x []float64, off []int, bias []float64, rows, n, xs, xc, ys int) {
	convRowsGeneric(y, ldy, nf, w, x, off, bias, rows, n, xs, xc, ys)
}

func convCols(d []float64, ldd int, w []float64, ldw int, g []float64, ldg, nf, np, n int) {
	convColsGeneric(d, ldd, w, ldw, g, ldg, nf, np, n)
}

func convGrad4(d, g, x []float64, off []int, batch, outH, outW, xs, xc, chw int) {
	convGrad4Generic(d, g, x, off, batch, outH, outW, xs, xc, chw)
}
