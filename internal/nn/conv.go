package nn

import (
	"fmt"
	"math"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Conv2D is a 2-D convolution over inputs laid out as flattened C×H×W
// rows of a (batch × C*H*W) tensor. The whole minibatch is unrolled into
// one im2col matrix so each Forward issues a single
// (F × C·K·K) · (C·K·K × batch·outH·outW) GEMM instead of one small GEMM
// per image, and every intermediate lives in a layer-owned scratch arena,
// so steady-state passes allocate nothing.
//
// The per-element floating-point accumulation order is identical to the
// per-image formulation (see Conv2DRef), so both produce bit-equal
// outputs and gradients.
type Conv2D struct {
	Geom    tensor.ConvGeom
	Filters int
	// W has shape (Filters × C*K*K); B has shape (1 × Filters).
	W, B   *tensor.Dense
	dW, dB *tensor.Dense

	arena    tensor.Scratch
	lastCols *tensor.Dense // batched im2col matrix, arena-owned

	params, grads []*tensor.Dense // lazily built Params/Grads views
}

// NewConv2D constructs a convolution layer with He-uniform init.
func NewConv2D(geom tensor.ConvGeom, filters int, rng *stats.RNG) *Conv2D {
	geom.Validate()
	if filters <= 0 {
		panic("nn: Conv2D with non-positive filter count")
	}
	fan := geom.ColRows()
	c := &Conv2D{
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

// OutSize returns the flattened per-image output length, Filters*outH*outW.
func (c *Conv2D) OutSize() int { return c.Filters * c.Geom.OutHeight() * c.Geom.OutWidth() }

// InSize returns the flattened per-image input length, C*H*W.
func (c *Conv2D) InSize() int { return c.Geom.Channels * c.Geom.Height * c.Geom.Width }

// Forward implements Layer. The output is arena-owned and valid until
// this layer's next Forward.
func (c *Conv2D) Forward(x *tensor.Dense) *tensor.Dense {
	batch := x.Rows()
	if x.Cols() != c.InSize() {
		panic(fmt.Sprintf("nn: Conv2D input width %d, want %d", x.Cols(), c.InSize()))
	}
	outHW := c.Geom.OutHeight() * c.Geom.OutWidth()
	width := batch * outHW
	cols := c.arena.Dense2D("cols", c.Geom.ColRows(), width)
	tensor.Im2ColBatchedInto(cols, x, c.Geom)
	c.lastCols = cols
	prod := c.arena.Dense2D("prod", c.Filters, width)
	tensor.MatMulInto(prod, c.W, cols) // one GEMM convolves the whole batch
	// Scatter (F × batch·outHW) into per-image rows, adding the bias.
	y := c.arena.Dense2D("y", batch, c.OutSize())
	for b := 0; b < batch; b++ {
		dst := y.Row(b)
		for f := 0; f < c.Filters; f++ {
			bias := c.B.Data[f]
			src := prod.Data[f*width+b*outHW : f*width+(b+1)*outHW]
			out := dst[f*outHW : (f+1)*outHW]
			for i, v := range src {
				out[i] = v + bias
			}
		}
	}
	return y
}

// Backward implements Layer. The returned gradient is arena-owned and
// valid until this layer's next Backward.
func (c *Conv2D) Backward(gradOut *tensor.Dense) *tensor.Dense {
	g := c.accumulateGrads(gradOut)
	// dCols = Wᵀ · g, scattered back to image space.
	dcols := c.arena.Dense2D("dcols", c.Geom.ColRows(), g.Cols())
	tensor.MatMulTransAInto(dcols, c.W, g)
	gradIn := c.arena.Dense2D("gradin", gradOut.Rows(), c.InSize())
	tensor.Col2ImBatchedInto(gradIn, dcols, c.Geom)
	return gradIn
}

// backwardParams is Backward without the input gradient.
func (c *Conv2D) backwardParams(gradOut *tensor.Dense) { c.accumulateGrads(gradOut) }

// accumulateGrads adds this batch's dW and dB and returns gradOut
// gathered into the (F × batch·outHW) im2col column layout.
func (c *Conv2D) accumulateGrads(gradOut *tensor.Dense) *tensor.Dense {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	batch := gradOut.Rows()
	outHW := c.Geom.OutHeight() * c.Geom.OutWidth()
	width := batch * outHW
	if c.lastCols.Cols() != width {
		panic("nn: Conv2D.Backward batch mismatch with last Forward")
	}
	// Gather per-image (F × outHW) gradients into one (F × batch·outHW)
	// matrix matching the im2col column layout.
	g := c.arena.Dense2D("g", c.Filters, width)
	for b := 0; b < batch; b++ {
		src := gradOut.Row(b)
		for f := 0; f < c.Filters; f++ {
			copy(g.Data[f*width+b*outHW:f*width+(b+1)*outHW], src[f*outHW:(f+1)*outHW])
		}
	}
	// dW += g · colsᵀ, summed image by image (chunk = outHW) so the
	// accumulation order matches the per-image reference bit for bit.
	tensor.AddMatMulTransBChunked(c.dW, g, c.lastCols, outHW)
	// dB += per-image row sums of g, images in ascending order.
	for f := 0; f < c.Filters; f++ {
		row := g.Data[f*width : (f+1)*width]
		for b := 0; b < batch; b++ {
			s := 0.0
			for _, v := range row[b*outHW : (b+1)*outHW] {
				s += v
			}
			c.dB.Data[f] += s
		}
	}
	return g
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Dense {
	if c.params == nil {
		c.params = []*tensor.Dense{c.W, c.B}
	}
	return c.params
}

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Dense {
	if c.grads == nil {
		c.grads = []*tensor.Dense{c.dW, c.dB}
	}
	return c.grads
}

// ZeroGrads implements Layer.
func (c *Conv2D) ZeroGrads() { c.dW.Zero(); c.dB.Zero() }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		Geom:    c.Geom,
		Filters: c.Filters,
		W:       c.W.Clone(),
		B:       c.B.Clone(),
		dW:      tensor.New(c.dW.Shape...),
		dB:      tensor.New(c.dB.Shape...),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%dx%d,k=%d,f=%d)", c.Geom.Channels, c.Geom.Height, c.Geom.Width, c.Geom.Kernel, c.Filters)
}

// MaxPool2D is a max pooling layer over flattened C×H×W rows with a
// square window and equal stride (non-overlapping pooling when
// stride == window, as in LeNet).
type MaxPool2D struct {
	Geom tensor.ConvGeom // Kernel is the pool window; Pad must be 0.

	arena   tensor.Scratch
	lastArg []int // flat input index chosen per output element, per batch row
	lastIn  int   // input width cached from Forward
}

// NewMaxPool2D constructs a max-pooling layer. geom.Pad must be zero.
func NewMaxPool2D(geom tensor.ConvGeom) *MaxPool2D {
	geom.Validate()
	if geom.Pad != 0 {
		panic("nn: MaxPool2D does not support padding")
	}
	return &MaxPool2D{Geom: geom}
}

// OutSize returns the flattened per-image output length.
func (p *MaxPool2D) OutSize() int { return p.Geom.Channels * p.Geom.OutHeight() * p.Geom.OutWidth() }

// InSize returns the flattened per-image input length.
func (p *MaxPool2D) InSize() int { return p.Geom.Channels * p.Geom.Height * p.Geom.Width }

// Forward implements Layer. The output is arena-owned and valid until
// this layer's next Forward.
func (p *MaxPool2D) Forward(x *tensor.Dense) *tensor.Dense {
	batch := x.Rows()
	if x.Cols() != p.InSize() {
		panic(fmt.Sprintf("nn: MaxPool2D input width %d, want %d", x.Cols(), p.InSize()))
	}
	y := p.arena.Dense2D("y", batch, p.OutSize())
	if cap(p.lastArg) < batch*p.OutSize() {
		p.lastArg = make([]int, batch*p.OutSize())
	}
	p.lastArg = p.lastArg[:batch*p.OutSize()]
	p.lastIn = x.Cols()
	if p.Geom.Kernel == 2 && p.Geom.Stride == 2 {
		p.forward2x2(x, y)
	} else {
		p.forwardAny(x, y)
	}
	return y
}

// forwardAny is Forward for any window and stride: y gets each window's
// maximum and lastArg its flat input index.
func (p *MaxPool2D) forwardAny(x, y *tensor.Dense) {
	outH, outW := p.Geom.OutHeight(), p.Geom.OutWidth()
	for b := 0; b < x.Rows(); b++ {
		in := x.Row(b)
		out := y.Row(b)
		argBase := b * p.OutSize()
		for c := 0; c < p.Geom.Channels; c++ {
			chanBase := c * p.Geom.Height * p.Geom.Width
			outChan := c * outH * outW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					// Seed from the window's first element, so a NaN there
					// propagates and the argmax always lies in the window.
					bestIdx := chanBase + oy*p.Geom.Stride*p.Geom.Width + ox*p.Geom.Stride
					bestVal := in[bestIdx]
					for ky := 0; ky < p.Geom.Kernel; ky++ {
						iy := oy*p.Geom.Stride + ky
						if iy >= p.Geom.Height {
							continue
						}
						for kx := 0; kx < p.Geom.Kernel; kx++ {
							ix := ox*p.Geom.Stride + kx
							if ix >= p.Geom.Width {
								continue
							}
							idx := chanBase + iy*p.Geom.Width + ix
							if in[idx] > bestVal {
								bestVal = in[idx]
								bestIdx = idx
							}
						}
					}
					o := outChan + oy*outW + ox
					out[o] = bestVal
					p.lastArg[argBase+o] = bestIdx
				}
			}
		}
	}
}

// forward2x2 is forwardAny for LeNet's 2×2 window at stride 2: the same
// compares in the same order — first element, right, below, below-right,
// each winning only when strictly greater — with the winner picked by
// bit masks instead of branches on data the predictor cannot learn.
func (p *MaxPool2D) forward2x2(x, y *tensor.Dense) {
	H, W := p.Geom.Height, p.Geom.Width
	outH, outW := p.Geom.OutHeight(), p.Geom.OutWidth()
	outSize := p.OutSize()
	for b := 0; b < x.Rows(); b++ {
		in := x.Row(b)
		out := y.Row(b)
		arg := p.lastArg[b*outSize : (b+1)*outSize]
		for c := 0; c < p.Geom.Channels; c++ {
			for oy := 0; oy < outH; oy++ {
				top := c*H*W + 2*oy*W
				o := (c*outH + oy) * outW
				for ox := 0; ox < outW; ox++ {
					i := top + 2*ox
					w := in[i : i+W+2]
					best, v := pick(i, w[0], i+1, w[1])
					best, v = pick(best, v, i+W, w[W])
					best, v = pick(best, v, i+W+1, w[W+1])
					out[o+ox] = v
					arg[o+ox] = best
				}
			}
		}
	}
}

// pick returns (cand, cv) when cv > v and (best, v) otherwise, without a
// branch.
func pick(best int, v float64, cand int, cv float64) (int, float64) {
	m := bitMask(cv > v)
	vb := math.Float64bits(v)
	return best ^ int(m)&(best^cand), math.Float64frombits(vb ^ m&(vb^math.Float64bits(cv)))
}

// Backward implements Layer. The returned gradient is arena-owned and
// valid until this layer's next Backward.
func (p *MaxPool2D) Backward(gradOut *tensor.Dense) *tensor.Dense {
	if p.lastArg == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	batch := gradOut.Rows()
	gradIn := p.arena.Dense2D("gradin", batch, p.lastIn)
	gradIn.Zero() // scratch is not zeroed, and the scatter accumulates
	for b := 0; b < batch; b++ {
		g := gradOut.Row(b)
		gi := gradIn.Row(b)
		argBase := b * p.OutSize()
		for o, v := range g {
			gi[p.lastArg[argBase+o]] += v
		}
	}
	return gradIn
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Dense { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Dense { return nil }

// ZeroGrads implements Layer.
func (p *MaxPool2D) ZeroGrads() {}

// Clone implements Layer.
func (p *MaxPool2D) Clone() Layer { return &MaxPool2D{Geom: p.Geom} }

// Name implements Layer.
func (p *MaxPool2D) Name() string {
	return fmt.Sprintf("MaxPool2D(k=%d,s=%d)", p.Geom.Kernel, p.Geom.Stride)
}
