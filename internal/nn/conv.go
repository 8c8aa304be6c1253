package nn

import (
	"fmt"
	"math"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Conv2D is a 2-D convolution over inputs laid out as flattened C×H×W
// rows of a (batch × C*H*W) tensor. It convolves each image in place,
// through the direct kernels of internal/tensor, without building a
// column matrix; a padded layer convolves a zero-bordered copy. Every
// intermediate lives in a layer-owned scratch arena, so steady-state
// passes allocate nothing.
//
// The per-element floating-point accumulation order is identical to the
// per-image im2col formulation (see Conv2DRef), so both produce
// bit-equal outputs and gradients.
type Conv2D struct {
	Geom    tensor.ConvGeom
	Filters int
	// W has shape (Filters × C*K*K); B has shape (1 × Filters).
	W, B   *tensor.Dense
	dW, dB *tensor.Dense

	arena tensor.Scratch
	lastX *tensor.Dense // last Forward's input, zero-padded when Geom.Pad > 0

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
// this layer's next Forward. The layer keeps x (or its padded copy) for
// Backward, so x must not change in between.
func (c *Conv2D) Forward(x *tensor.Dense) *tensor.Dense {
	if x.Cols() != c.InSize() {
		panic(fmt.Sprintf("nn: Conv2D input width %d, want %d", x.Cols(), c.InSize()))
	}
	g := c.Geom.Padded()
	if c.Geom.Pad > 0 {
		xp := c.arena.Dense2D("xpad", x.Rows(), g.Channels*g.Height*g.Width)
		tensor.PadInto(xp, x, c.Geom)
		x = xp
	}
	c.lastX = x
	y := c.arena.Dense2D("y", x.Rows(), c.OutSize())
	tensor.ConvForwardInto(y, x, c.W, c.B.Data, g, &c.arena)
	return y
}

// Backward implements Layer. The returned gradient is arena-owned and
// valid until this layer's next Backward.
func (c *Conv2D) Backward(gradOut *tensor.Dense) *tensor.Dense {
	c.backwardParams(gradOut)
	gradIn := c.arena.Dense2D("gradin", gradOut.Rows(), c.InSize())
	tensor.ConvInputGradInto(gradIn, gradOut, c.W, c.Geom, &c.arena)
	return gradIn
}

// backwardParams is Backward without the input gradient: it adds this
// batch's dW and dB.
func (c *Conv2D) backwardParams(gradOut *tensor.Dense) {
	if c.lastX == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	if gradOut.Rows() != c.lastX.Rows() {
		panic("nn: Conv2D.Backward batch mismatch with last Forward")
	}
	tensor.ConvWeightGradAdd(c.dW, gradOut, c.lastX, c.Geom.Padded(), &c.arena)
	// dB += per-image row sums of gradOut, images in ascending order.
	outHW := c.Geom.OutHeight() * c.Geom.OutWidth()
	for b := 0; b < gradOut.Rows(); b++ {
		row := gradOut.Row(b)
		for f := 0; f < c.Filters; f++ {
			s := 0.0
			for _, v := range row[f*outHW : (f+1)*outHW] {
				s += v
			}
			c.dB.Data[f] += s
		}
	}
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
