package nn

import (
	"fmt"
	"math"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Conv2DRef is the per-image reference implementation of Conv2D: one
// im2col and one GEMM per image, allocating every intermediate. It is
// retained as the correctness oracle for the direct layer — identity
// tests assert that Conv2D matches it bit for bit on outputs and
// gradients — and is not used on any hot path.
type Conv2DRef struct {
	Geom    tensor.ConvGeom
	Filters int
	W, B    *tensor.Dense
	dW, dB  *tensor.Dense

	lastCols []*tensor.Dense // cached im2col matrices, one per image

	params, grads []*tensor.Dense // lazily built Params/Grads views
}

// NewConv2DRef constructs a reference convolution layer with the same
// He-uniform init (and RNG draw order) as NewConv2D.
func NewConv2DRef(geom tensor.ConvGeom, filters int, rng *stats.RNG) *Conv2DRef {
	geom.Validate()
	if filters <= 0 {
		panic("nn: Conv2DRef with non-positive filter count")
	}
	fan := geom.ColRows()
	c := &Conv2DRef{
		Geom:    geom,
		Filters: filters,
		W:       tensor.New(filters, fan),
		B:       tensor.New(1, filters),
		dW:      tensor.New(filters, fan),
		dB:      tensor.New(1, filters),
	}
	limit := math.Sqrt(6.0 / float64(fan))
	c.W.RandUniform(-limit, limit, rng)
	return c
}

// OutSize returns the flattened per-image output length.
func (c *Conv2DRef) OutSize() int { return c.Filters * c.Geom.OutHeight() * c.Geom.OutWidth() }

// InSize returns the flattened per-image input length.
func (c *Conv2DRef) InSize() int { return c.Geom.Channels * c.Geom.Height * c.Geom.Width }

// Forward implements Layer.
func (c *Conv2DRef) Forward(x *tensor.Dense) *tensor.Dense {
	batch := x.Rows()
	if x.Cols() != c.InSize() {
		panic(fmt.Sprintf("nn: Conv2DRef input width %d, want %d", x.Cols(), c.InSize()))
	}
	outHW := c.Geom.OutHeight() * c.Geom.OutWidth()
	y := tensor.New(batch, c.OutSize())
	c.lastCols = make([]*tensor.Dense, batch)
	for b := 0; b < batch; b++ {
		cols := tensor.Im2Col(x.Row(b), c.Geom)
		c.lastCols[b] = cols
		prod := tensor.MatMul(c.W, cols) // (F × outHW)
		dst := y.Row(b)
		for f := 0; f < c.Filters; f++ {
			bias := c.B.Data[f]
			src := prod.Data[f*outHW : (f+1)*outHW]
			out := dst[f*outHW : (f+1)*outHW]
			for i, v := range src {
				out[i] = v + bias
			}
		}
	}
	return y
}

// Backward implements Layer.
func (c *Conv2DRef) Backward(gradOut *tensor.Dense) *tensor.Dense {
	return c.backward(gradOut, true)
}

// backwardParams is Backward without the input gradient.
func (c *Conv2DRef) backwardParams(gradOut *tensor.Dense) { c.backward(gradOut, false) }

// backward accumulates dW and dB image by image and, when input is set,
// returns the input gradient (nil otherwise).
func (c *Conv2DRef) backward(gradOut *tensor.Dense, input bool) *tensor.Dense {
	if c.lastCols == nil {
		panic("nn: Conv2DRef.Backward before Forward")
	}
	batch := gradOut.Rows()
	if batch != len(c.lastCols) {
		panic("nn: Conv2DRef.Backward batch mismatch with last Forward")
	}
	outHW := c.Geom.OutHeight() * c.Geom.OutWidth()
	var gradIn *tensor.Dense
	if input {
		gradIn = tensor.New(batch, c.InSize())
	}
	for b := 0; b < batch; b++ {
		// View this image's output gradient as (F × outHW).
		g := tensor.FromSlice(gradOut.Row(b), c.Filters, outHW)
		// dW += g · colsᵀ ; dB += row sums of g.
		c.dW.Add(tensor.MatMulTransB(g, c.lastCols[b]))
		for f := 0; f < c.Filters; f++ {
			s := 0.0
			for _, v := range g.Row(f) {
				s += v
			}
			c.dB.Data[f] += s
		}
		if !input {
			continue
		}
		// dCols = Wᵀ · g, scattered back to image space.
		dcols := tensor.MatMulTransA(c.W, g)
		img := tensor.Col2Im(dcols, c.Geom)
		copy(gradIn.Row(b), img)
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2DRef) Params() []*tensor.Dense {
	if c.params == nil {
		c.params = []*tensor.Dense{c.W, c.B}
	}
	return c.params
}

// Grads implements Layer.
func (c *Conv2DRef) Grads() []*tensor.Dense {
	if c.grads == nil {
		c.grads = []*tensor.Dense{c.dW, c.dB}
	}
	return c.grads
}

// ZeroGrads implements Layer.
func (c *Conv2DRef) ZeroGrads() { c.dW.Zero(); c.dB.Zero() }

// Clone implements Layer.
func (c *Conv2DRef) Clone() Layer {
	return &Conv2DRef{
		Geom:    c.Geom,
		Filters: c.Filters,
		W:       c.W.Clone(),
		B:       c.B.Clone(),
		dW:      tensor.New(c.dW.Shape...),
		dB:      tensor.New(c.dB.Shape...),
	}
}

// Name implements Layer.
func (c *Conv2DRef) Name() string {
	return fmt.Sprintf("Conv2DRef(%dx%dx%d,k=%d,f=%d)", c.Geom.Channels, c.Geom.Height, c.Geom.Width, c.Geom.Kernel, c.Filters)
}
