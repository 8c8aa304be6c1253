// Package nn is a from-scratch neural-network substrate sufficient to
// train the LeNet-style convolutional networks and multilayer perceptrons
// used in the HACCS evaluation. It provides dense, convolutional, pooling
// and activation layers with exact backpropagation, a softmax
// cross-entropy loss, minibatch SGD with momentum and weight decay, and
// flat parameter (de)serialization so federated averaging can treat a
// model as a single vector.
//
// The paper trains its models with PyTorch/PySyft; this package replaces
// that dependency with stdlib-only Go while preserving the property the
// evaluation depends on — real gradient descent whose loss and accuracy
// respond to the data distribution each client holds.
package nn

import (
	"fmt"
	"math"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a
// batch (rows are examples) and returns the batch output; Backward
// consumes the gradient of the loss with respect to the layer output and
// returns the gradient with respect to the layer input, accumulating
// parameter gradients internally.
//
// Layers are stateful across a Forward/Backward pair (they cache
// activations) and are therefore not safe for concurrent use; each
// simulated client owns its own model clone.
//
// Tensors returned by Forward and Backward are owned by the layer's
// scratch arena: a Forward result is valid until that layer's next
// Forward, a Backward result until its next Backward. Callers that need
// a result to outlive the next pass must copy it. Clone starts with a
// fresh, empty arena.
type Layer interface {
	// Forward computes the layer output for a batch.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward computes the input gradient given the output gradient.
	// It must be called after Forward on the same batch.
	Backward(gradOut *tensor.Dense) *tensor.Dense
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Dense
	// Grads returns the parameter gradients, parallel to Params.
	Grads() []*tensor.Dense
	// ZeroGrads clears accumulated parameter gradients.
	ZeroGrads()
	// Clone returns a deep copy with independent parameters and no
	// cached activations.
	Clone() Layer
	// Name identifies the layer for diagnostics.
	Name() string
}

// Dense is a fully connected layer: y = xW + b, where x is (batch × in),
// W is (in × out) and b is broadcast over the batch.
type Dense struct {
	W, B   *tensor.Dense
	dW, dB *tensor.Dense
	arena  tensor.Scratch
	lastX  *tensor.Dense

	params, grads []*tensor.Dense // lazily built Params/Grads views
}

// NewDense constructs a fully connected layer with He-uniform initialized
// weights, the appropriate default for ReLU networks.
func NewDense(in, out int, rng *stats.RNG) *Dense {
	d := &Dense{
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	d.W.RandUniform(-limit, limit, rng)
	return d
}

// Forward implements Layer. The output is arena-owned and valid until
// the next Forward.
func (d *Dense) Forward(x *tensor.Dense) *tensor.Dense {
	d.lastX = x
	y := d.arena.Dense2D("y", x.Rows(), d.W.Cols())
	tensor.MatMulInto(y, x, d.W)
	rows, cols := y.Rows(), y.Cols()
	for i := 0; i < rows; i++ {
		row := y.Row(i)
		for j := 0; j < cols; j++ {
			row[j] += d.B.Data[j]
		}
	}
	return y
}

// Backward implements Layer. The returned gradient is arena-owned and
// valid until the next Backward.
func (d *Dense) Backward(gradOut *tensor.Dense) *tensor.Dense {
	d.backwardParams(gradOut)
	dx := d.arena.Dense2D("dx", gradOut.Rows(), d.W.Rows())
	tensor.MatMulTransBInto(dx, gradOut, d.W) // dX = gradOut · Wᵀ
	return dx
}

// backwardParams is Backward without the input gradient.
func (d *Dense) backwardParams(gradOut *tensor.Dense) {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	// dW += xᵀ · gradOut ; dB += column sums.
	dw := d.arena.Dense2D("dw", d.W.Rows(), d.W.Cols())
	tensor.MatMulTransAInto(dw, d.lastX, gradOut)
	d.dW.Add(dw)
	rows, cols := gradOut.Rows(), gradOut.Cols()
	for i := 0; i < rows; i++ {
		row := gradOut.Row(i)
		for j := 0; j < cols; j++ {
			d.dB.Data[j] += row[j]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Dense {
	if d.params == nil {
		d.params = []*tensor.Dense{d.W, d.B}
	}
	return d.params
}

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Dense {
	if d.grads == nil {
		d.grads = []*tensor.Dense{d.dW, d.dB}
	}
	return d.grads
}

// ZeroGrads implements Layer.
func (d *Dense) ZeroGrads() { d.dW.Zero(); d.dB.Zero() }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		W:  d.W.Clone(),
		B:  d.B.Clone(),
		dW: tensor.New(d.W.Shape...),
		dB: tensor.New(d.B.Shape...),
	}
}

// Name implements Layer.
func (d *Dense) Name() string {
	return fmt.Sprintf("Dense(%d->%d)", d.W.Rows(), d.W.Cols())
}

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	arena tensor.Scratch
	mask  []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer. The output is arena-owned and valid until
// the next Forward.
func (r *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	y := r.arena.Dense2D("y", x.Rows(), x.Cols())
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	mask, out := r.mask[:len(x.Data)], y.Data[:len(x.Data)]
	for i, v := range x.Data {
		// Select by bit mask, not by branch: the sign of a conv output
		// is a coin flip the branch predictor loses. v ≤ 0 and NaN
		// give +0.
		keep := v > 0
		mask[i] = keep
		out[i] = math.Float64frombits(math.Float64bits(v) & bitMask(keep))
	}
	return y
}

// bitMask is all ones when keep is set and zero otherwise, computed
// without a branch.
func bitMask(keep bool) uint64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return m
}

// Backward implements Layer. The returned gradient is arena-owned and
// valid until the next Backward.
func (r *ReLU) Backward(gradOut *tensor.Dense) *tensor.Dense {
	if len(r.mask) != len(gradOut.Data) {
		panic("nn: ReLU.Backward shape mismatch with last Forward")
	}
	g := r.arena.Dense2D("g", gradOut.Rows(), gradOut.Cols())
	mask, out := r.mask[:len(gradOut.Data)], g.Data[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		out[i] = math.Float64frombits(math.Float64bits(v) & bitMask(mask[i]))
	}
	return g
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Dense { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Dense { return nil }

// ZeroGrads implements Layer.
func (r *ReLU) ZeroGrads() {}

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Flatten reshapes (batch × any...) input to (batch × rest); with the
// 2-D-batch convention used here it is the identity and exists to make
// network definitions read like their PyTorch counterparts.
type Flatten struct{}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Dense) *tensor.Dense { return x }

// Backward implements Layer.
func (f *Flatten) Backward(g *tensor.Dense) *tensor.Dense { return g }

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Dense { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Dense { return nil }

// ZeroGrads implements Layer.
func (f *Flatten) ZeroGrads() {}

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }
