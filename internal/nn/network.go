package nn

import (
	"math"

	"haccs/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax
// cross-entropy. It owns parameter flattening for federated averaging:
// ParamsVector/SetParamsVector view the whole model as one float64 slice.
type Network struct {
	Layers []Layer

	arena tensor.Scratch // backs LossGrad/Loss/Accuracy/Evaluate; per-network, not concurrency-safe
}

// NewNetwork builds a network from layers in forward order.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the batch through every layer and returns the logits.
func (n *Network) Forward(x *tensor.Dense) *tensor.Dense {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// paramsBackwarder is implemented by layers that can accumulate their
// parameter gradients without producing an input gradient. Its result is
// the same as Backward's minus the returned tensor.
type paramsBackwarder interface {
	backwardParams(gradOut *tensor.Dense)
}

// Backward propagates the loss gradient from the logits back through the
// stack, accumulating parameter gradients. Nothing reads the gradient
// with respect to the network input, so the first layer computes its
// parameter gradients only when it can.
func (n *Network) Backward(gradLogits *tensor.Dense) {
	if len(n.Layers) == 0 {
		return
	}
	g := gradLogits
	for i := len(n.Layers) - 1; i > 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	if pb, ok := n.Layers[0].(paramsBackwarder); ok {
		pb.backwardParams(g)
	} else {
		n.Layers[0].Backward(g)
	}
}

// ZeroGrads clears the accumulated gradients of every layer.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		l.ZeroGrads()
	}
}

// Clone returns a deep copy with independent parameters.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return &Network{Layers: layers}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += p.Size()
		}
	}
	return total
}

// ParamsVector flattens all parameters into a single new slice, in layer
// order. The result is the unit of exchange in federated averaging and
// also determines the simulated model transfer size.
func (n *Network) ParamsVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			out = append(out, p.Data...)
		}
	}
	return out
}

// ParamsVectorInto writes the flat parameter vector into dst, which
// must have NumParams entries; the allocation-free ParamsVector.
func (n *Network) ParamsVectorInto(dst []float64) {
	if len(dst) != n.NumParams() {
		panic("nn: ParamsVectorInto length mismatch")
	}
	off := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			copy(dst[off:off+p.Size()], p.Data)
			off += p.Size()
		}
	}
}

// SetParamsVector writes a flat parameter vector (as produced by
// ParamsVector on a network of identical architecture) into the model.
// It panics if the length does not match.
func (n *Network) SetParamsVector(v []float64) {
	if len(v) != n.NumParams() {
		panic("nn: SetParamsVector length mismatch")
	}
	off := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			copy(p.Data, v[off:off+p.Size()])
			off += p.Size()
		}
	}
}

// GradsVector flattens all parameter gradients into a single new slice,
// parallel to ParamsVector.
func (n *Network) GradsVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			out = append(out, g.Data...)
		}
	}
	return out
}

// AddProximalGrad adds the gradient of the FedProx proximal term
// (mu/2)·||w − w_ref||² to the accumulated parameter gradients:
// grad += mu · (w − w_ref). ref must be a flat vector from an identical
// architecture (as produced by ParamsVector). Used by clients running
// FedProx-style local solvers (Li et al., MLSys'20), which bound local
// drift on heterogeneous data.
func (n *Network) AddProximalGrad(ref []float64, mu float64) {
	if len(ref) != n.NumParams() {
		panic("nn: AddProximalGrad reference length mismatch")
	}
	if mu == 0 {
		return
	}
	off := 0
	for _, l := range n.Layers {
		params := l.Params()
		grads := l.Grads()
		for i, p := range params {
			g := grads[i]
			for j := range p.Data {
				g.Data[j] += mu * (p.Data[j] - ref[off+j])
			}
			off += p.Size()
		}
	}
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and the gradient of that loss with respect to
// the logits (softmax(logits) - onehot(labels), scaled by 1/batch).
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int) (loss float64, grad *tensor.Dense) {
	grad = logits.SoftmaxRows()
	return crossEntropy(grad, labels, true), grad
}

// LossGrad is SoftmaxCrossEntropy computed into network-owned scratch:
// same loss and gradient values, but the returned tensor is only valid
// until the next LossGrad call on this network. It is the loss entry
// point of the allocation-free training hot path.
func (n *Network) LossGrad(logits *tensor.Dense, labels []int) (loss float64, grad *tensor.Dense) {
	grad = n.arena.Dense2D("lossgrad", logits.Rows(), logits.Cols())
	logits.SoftmaxRowsInto(grad)
	return crossEntropy(grad, labels, true), grad
}

// lossOf is LossGrad's loss without the gradient, for Loss and Evaluate.
func (n *Network) lossOf(logits *tensor.Dense, labels []int) float64 {
	probs := n.arena.Dense2D("probs", logits.Rows(), logits.Cols())
	logits.SoftmaxRowsInto(probs)
	return crossEntropy(probs, labels, false)
}

// crossEntropy is the one cross-entropy body: the mean over the batch of
// −log p[i][label i], each probability clamped away from zero. With grad
// set it then rewrites probs in place into the loss gradient with
// respect to the logits, (probs − onehot(labels)) / batch. The loss is
// summed in label order either way, so it has the same bits with or
// without the gradient.
func crossEntropy(probs *tensor.Dense, labels []int, grad bool) float64 {
	batch := probs.Rows()
	if batch != len(labels) {
		panic("nn: cross-entropy batch/label mismatch")
	}
	total := 0.0
	for i, y := range labels {
		if y < 0 || y >= probs.Cols() {
			panic("nn: label out of range")
		}
		p := probs.At(i, y)
		// Clamp to avoid -Inf on (numerically) zero probabilities.
		if p < 1e-15 {
			p = 1e-15
		}
		total += -math.Log(p)
	}
	inv := 1.0 / float64(batch)
	if grad {
		for i, y := range labels {
			probs.Set(i, y, probs.At(i, y)-1)
		}
		probs.Scale(inv)
	}
	return total * inv
}

// Loss computes the mean cross-entropy of the network on a batch without
// updating gradients or parameters.
func (n *Network) Loss(x *tensor.Dense, labels []int) float64 {
	return n.lossOf(n.Forward(x), labels)
}

// Accuracy computes the fraction of correct argmax predictions on a
// batch.
func (n *Network) Accuracy(x *tensor.Dense, labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	return n.accuracyOf(n.Forward(x), labels)
}

// Evaluate returns both mean loss and accuracy in a single forward pass.
func (n *Network) Evaluate(x *tensor.Dense, labels []int) (loss, acc float64) {
	if len(labels) == 0 {
		return 0, 0
	}
	logits := n.Forward(x)
	return n.lossOf(logits, labels), n.accuracyOf(logits, labels)
}

// accuracyOf is the fraction of logit rows whose argmax is the label.
func (n *Network) accuracyOf(logits *tensor.Dense, labels []int) float64 {
	pred := n.arena.Ints("preds", logits.Rows())
	logits.ArgMaxRowsInto(pred)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
