// Package tensor implements the dense numerical arrays underlying the
// neural-network substrate. It provides row-major float64 tensors with
// elementwise arithmetic, a cache-blocked parallel matrix multiply, and
// the im2col/col2im transforms used to express convolution as GEMM.
//
// The package is deliberately small: only the operations the federated
// training workloads need, each implemented without external
// dependencies. Shapes are validated eagerly and mismatches panic,
// because a shape error in simulation code is always a programming bug.
package tensor

import (
	"fmt"
	"math"

	"haccs/internal/stats"
)

// Dense is a row-major dense tensor. Data is a flat backing slice whose
// length equals the product of Shape. A Dense with an empty shape is a
// scalar holding one element.
type Dense struct {
	Shape []int
	Data  []float64
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Dense{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float64, shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Dense{Shape: append([]int(nil), shape...), Data: data}
}

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.Data) }

// Rows and Cols report the dimensions of a 2-D tensor; they panic on
// tensors of any other rank.
func (t *Dense) Rows() int { t.must2D(); return t.Shape[0] }

// Cols returns the number of columns of a 2-D tensor.
func (t *Dense) Cols() int { t.must2D(); return t.Shape[1] }

func (t *Dense) must2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, have shape %v", t.Shape))
	}
}

// At returns the element of a 2-D tensor at (i, j).
func (t *Dense) At(i, j int) float64 { t.must2D(); return t.Data[i*t.Shape[1]+j] }

// Set assigns the element of a 2-D tensor at (i, j).
func (t *Dense) Set(i, j int, v float64) { t.must2D(); t.Data[i*t.Shape[1]+j] = v }

// Row returns a view (not a copy) of row i of a 2-D tensor.
func (t *Dense) Row(i int) []float64 {
	t.must2D()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape of equal
// volume. The returned tensor shares the backing slice.
func (t *Dense) Reshape(shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Dense{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0 in place.
func (t *Dense) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Dense) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Dense) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Dense) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add computes t += other element-wise.
func (t *Dense) Add(other *Dense) {
	mustSameShape("Add", t, other)
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= other element-wise.
func (t *Dense) Sub(other *Dense) {
	mustSameShape("Sub", t, other)
	for i, v := range other.Data {
		t.Data[i] -= v
	}
}

// Mul computes t *= other element-wise (Hadamard product).
func (t *Dense) Mul(other *Dense) {
	mustSameShape("Mul", t, other)
	for i, v := range other.Data {
		t.Data[i] *= v
	}
}

// Scale computes t *= s element-wise.
func (t *Dense) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += alpha * other element-wise.
func (t *Dense) AXPY(alpha float64, other *Dense) {
	mustSameShape("AXPY", t, other)
	for i, v := range other.Data {
		t.Data[i] += alpha * v
	}
}

// Dot returns the inner product of two tensors of identical shape.
func Dot(a, b *Dense) float64 {
	mustSameShape("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Dense) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (t *Dense) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty data).
func (t *Dense) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Transpose returns a new tensor that is the transpose of a 2-D tensor.
func (t *Dense) Transpose() *Dense {
	t.must2D()
	r, c := t.Shape[0], t.Shape[1]
	out := New(c, r)
	// Block the loops for cache friendliness on large matrices.
	const blk = 32
	for ii := 0; ii < r; ii += blk {
		iMax := min(ii+blk, r)
		for jj := 0; jj < c; jj += blk {
			jMax := min(jj+blk, c)
			for i := ii; i < iMax; i++ {
				for j := jj; j < jMax; j++ {
					out.Data[j*r+i] = t.Data[i*c+j]
				}
			}
		}
	}
	return out
}

// ArgMaxRows returns, for a 2-D tensor, the column index of the maximum
// entry in each row — the predicted class for a batch of logit rows.
func (t *Dense) ArgMaxRows() []int {
	out := make([]int, t.Rows())
	t.ArgMaxRowsInto(out)
	return out
}

// ArgMaxRowsInto writes each row's argmax into dst, which must have one
// entry per row.
func (t *Dense) ArgMaxRowsInto(dst []int) {
	t.must2D()
	r, c := t.Shape[0], t.Shape[1]
	if len(dst) != r {
		panic("tensor: ArgMaxRowsInto length mismatch")
	}
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		dst[i] = best
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor, returning a new tensor.
func (t *Dense) SoftmaxRows() *Dense {
	t.must2D()
	out := New(t.Shape[0], t.Shape[1])
	t.SoftmaxRowsInto(out)
	return out
}

// SoftmaxRowsInto is SoftmaxRows writing into a caller-owned tensor of
// the same shape. Every element is overwritten.
func (t *Dense) SoftmaxRowsInto(out *Dense) {
	t.must2D()
	out.must2D()
	r, c := t.Shape[0], t.Shape[1]
	if out.Shape[0] != r || out.Shape[1] != c {
		panic("tensor: SoftmaxRowsInto shape mismatch")
	}
	for i := 0; i < r; i++ {
		in := t.Data[i*c : (i+1)*c]
		o := out.Data[i*c : (i+1)*c]
		maxV := in[0]
		for _, v := range in[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range in {
			e := math.Exp(v - maxV)
			o[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range o {
			o[j] *= inv
		}
	}
}

// RandNormal fills the tensor with draws from N(mean, stddev).
func (t *Dense) RandNormal(mean, stddev float64, rng *stats.RNG) {
	for i := range t.Data {
		t.Data[i] = rng.Normal(mean, stddev)
	}
}

// RandUniform fills the tensor with draws from Uniform[lo, hi).
func (t *Dense) RandUniform(lo, hi float64, rng *stats.RNG) {
	for i := range t.Data {
		t.Data[i] = rng.Uniform(lo, hi)
	}
}

// Equal reports whether two tensors have the same shape and all elements
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
