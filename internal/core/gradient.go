package core

import (
	"math"

	"haccs/internal/cluster"
	"haccs/internal/dataset"
	"haccs/internal/nn"
)

// The paper's §IV-A discusses a third possible summary family —
// "gradients of the loss function or model weights" — and rejects it:
// gradients change every training epoch, so summaries would need to be
// re-communicated and re-clustered continuously. This file implements
// that alternative so the trade-off can be measured rather than assumed
// (see experiments.RunGradientAblation): gradient clusters are accurate
// at any single round but their assignments drift as the model moves,
// while P(y)/P(X|y) summaries are stable for the whole run.

// GradientSummary computes a client's loss gradient at the given global
// parameters over its full local dataset, L2-normalized so only the
// descent *direction* is compared. The model is scratch space owned by
// the caller; its parameters are overwritten.
func GradientSummary(model *nn.Network, globalParams []float64, d *dataset.Dataset) []float64 {
	model.SetParamsVector(globalParams)
	model.ZeroGrads()
	logits := model.Forward(d.X)
	_, grad := nn.SoftmaxCrossEntropy(logits, d.Y)
	model.Backward(grad)
	g := model.GradsVector()
	norm := 0.0
	for _, v := range g {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range g {
			g[i] /= norm
		}
	}
	return g
}

// CosineDistance maps the cosine similarity of two direction vectors
// into a [0, 1] distance: 0 for identical directions, 0.5 for
// orthogonal, 1 for opposite. Inputs need not be normalized.
func CosineDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("core: CosineDistance length mismatch")
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0.5 // no direction information: treat as orthogonal
	}
	cos := dot / math.Sqrt(na*nb)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return (1 - cos) / 2
}

// GradientDistanceMatrix computes pairwise cosine distances between
// gradient summaries.
func GradientDistanceMatrix(grads [][]float64) *cluster.Matrix {
	return cluster.FromFunc(len(grads), func(i, j int) float64 {
		return CosineDistance(grads[i], grads[j])
	})
}

// ClusterGradients runs the server-side clustering step on gradient
// summaries: clusterMatrix over their cosine distances at the P(X|y)
// threshold, with noise singletonized, as on the histogram path.
func ClusterGradients(grads [][]float64) []int {
	labels, next, _ := clusterMatrix(nil, GradientDistanceMatrix(grads), pxyMinSilhouette)
	singletonize(labels, next)
	return labels
}
