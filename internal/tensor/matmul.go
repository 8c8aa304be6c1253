package tensor

// Each entry point in this file runs one serial kernel on the calling
// goroutine; the parallelism of training is fl's client workers, one
// GEMM per worker at a time. Every kernel keeps one invariant: the
// order in which products are accumulated into any single output
// element is the ascending inner-dimension order of the plain
// three-loop formulation, and every product is added — none is skipped
// for a zero weight. Register blocking widens how many output rows or
// columns share one streamed pass without changing any element's own
// accumulation order, so the results are bit-identical to the
// three-loop kernel, NaN and ±Inf operands included.
//
// A skip rule would break that: 0·Inf and 0·NaN are NaN, so whether a
// zero weight's product reaches an output would depend on whether its
// row sits in a 4-row block or among the leftover rows. For finite
// operands adding the ±0 product is a no-op: every accumulator starts
// at +0, a sum is −0 only when both addends are −0, so no accumulator
// is ever −0, and x + ±0 = x for any other x.

// MatMul returns a × b for 2-D tensors, using a cache-blocked ikj loop
// order.
func MatMul(a, b *Dense) *Dense {
	a.must2D()
	b.must2D()
	if a.Shape[1] != b.Shape[0] {
		panic("tensor: MatMul inner dimension mismatch")
	}
	out := New(a.Shape[0], b.Shape[1])
	matMulKernel(out, a, b)
	return out
}

// MatMulInto computes dst = a × b, reusing dst's storage. dst must have
// shape (a.Rows, b.Cols) and must not alias a or b.
func MatMulInto(dst, a, b *Dense) {
	a.must2D()
	b.must2D()
	dst.must2D()
	if a.Shape[1] != b.Shape[0] || dst.Shape[0] != a.Shape[0] || dst.Shape[1] != b.Shape[1] {
		panic("tensor: MatMulInto shape mismatch")
	}
	dst.Zero()
	matMulKernel(dst, a, b)
}

// gemmColTile is the column-tile width of the accumulating kernels:
// 512 float64s = 4KB per row slice, so a 4-row output tile plus the
// streamed b-row tile stay resident in L1 across the whole k loop.
const gemmColTile = 512

// matMulKernel accumulates out += a × b. Columns are tiled so each
// output tile is touched once per call rather than once per
// k-iteration, and rows are processed four at a time so each streamed
// b-row tile feeds four output rows per pass. Per output element the
// k-loop still accumulates in ascending order, so results are
// bit-identical to the scalar three-loop kernel.
func matMulKernel(out, a, b *Dense) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for j0 := 0; j0 < n; j0 += gemmColTile {
		j1 := min(j0+gemmColTile, n)
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			o0 := out.Data[i*n+j0 : i*n+j1]
			o1 := out.Data[(i+1)*n+j0 : (i+1)*n+j1]
			o2 := out.Data[(i+2)*n+j0 : (i+2)*n+j1]
			o3 := out.Data[(i+3)*n+j0 : (i+3)*n+j1]
			for p := 0; p < k; p++ {
				axpy4(o0, o1, o2, o3, b.Data[p*n+j0:p*n+j1], a0[p], a1[p], a2[p], a3[p])
			}
		}
		for ; i < m; i++ {
			ai := a.Data[i*k : (i+1)*k]
			oi := out.Data[i*n+j0 : i*n+j1]
			for p := 0; p < k; p++ {
				axpy1(oi, b.Data[p*n+j0:p*n+j1], ai[p])
			}
		}
	}
}

// MatMulTransB returns a × bᵀ without materializing the transpose;
// useful in backward passes where the gradient pattern is (m×k)·(n×k)ᵀ.
func MatMulTransB(a, b *Dense) *Dense {
	a.must2D()
	b.must2D()
	if a.Shape[1] != b.Shape[1] {
		panic("tensor: MatMulTransB inner dimension mismatch")
	}
	out := New(a.Shape[0], b.Shape[0])
	matMulTransBKernel(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a × bᵀ, reusing dst's storage. dst
// must have shape (a.Rows, b.Rows) and must not alias a or b. Every
// element is overwritten, so dst need not be zeroed.
func MatMulTransBInto(dst, a, b *Dense) {
	a.must2D()
	b.must2D()
	dst.must2D()
	if a.Shape[1] != b.Shape[1] || dst.Shape[0] != a.Shape[0] || dst.Shape[1] != b.Shape[0] {
		panic("tensor: MatMulTransBInto shape mismatch")
	}
	matMulTransBKernel(dst, a, b)
}

// matMulTransBKernel writes every output row as dot products, visiting
// four rows of b per pass over a's row so the a-side stream is
// amortized.
func matMulTransBKernel(out, a, b *Dense) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			if k > 0 {
				_, _, _, _ = b0[k-1], b1[k-1], b2[k-1], b3[k-1]
			}
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			oi[j] = s
		}
	}
}

// MatMulTransA returns aᵀ × b without materializing the transpose; this
// is the (k×m)ᵀ·(k×n) pattern of dense-layer weight gradients.
func MatMulTransA(a, b *Dense) *Dense {
	a.must2D()
	b.must2D()
	if a.Shape[0] != b.Shape[0] {
		panic("tensor: MatMulTransA inner dimension mismatch")
	}
	out := New(a.Shape[1], b.Shape[1])
	matMulTransAKernel(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ × b, reusing dst's storage. dst
// must have shape (a.Cols, b.Cols) and must not alias a or b.
func MatMulTransAInto(dst, a, b *Dense) {
	a.must2D()
	b.must2D()
	dst.must2D()
	if a.Shape[0] != b.Shape[0] || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != b.Shape[1] {
		panic("tensor: MatMulTransAInto shape mismatch")
	}
	dst.Zero()
	matMulTransAKernel(dst, a, b)
}

// matMulTransAKernel accumulates out += aᵀ × b, whose output rows are
// columns of a, with the same tiled row-major structure as
// matMulKernel, reading a column-wise; per output element the
// ka-loop accumulates in ascending order, identical to the rank-1
// formulation.
func matMulTransAKernel(out, a, b *Dense) {
	ka, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for j0 := 0; j0 < n; j0 += gemmColTile {
		j1 := min(j0+gemmColTile, n)
		i := 0
		for ; i+4 <= m; i += 4 {
			o0 := out.Data[i*n+j0 : i*n+j1]
			o1 := out.Data[(i+1)*n+j0 : (i+1)*n+j1]
			o2 := out.Data[(i+2)*n+j0 : (i+2)*n+j1]
			o3 := out.Data[(i+3)*n+j0 : (i+3)*n+j1]
			for p := 0; p < ka; p++ {
				base := p * m
				axpy4(o0, o1, o2, o3, b.Data[p*n+j0:p*n+j1], a.Data[base+i], a.Data[base+i+1], a.Data[base+i+2], a.Data[base+i+3])
			}
		}
		for ; i < m; i++ {
			oi := out.Data[i*n+j0 : i*n+j1]
			for p := 0; p < ka; p++ {
				axpy1(oi, b.Data[p*n+j0:p*n+j1], a.Data[p*m+i])
			}
		}
	}
}
