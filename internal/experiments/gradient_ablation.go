package experiments

import (
	"fmt"
	"strings"

	"haccs/internal/cluster"
	"haccs/internal/core"
	"haccs/internal/fl"
	"haccs/internal/metrics"
	"haccs/internal/selection"
	"haccs/internal/stats"
)

// GradientAblation quantifies the paper's §IV-A argument against
// gradient-based summaries: they cluster well at any single round but
// their assignments drift as the global model moves, so they would need
// continuous re-communication and re-clustering, whereas histogram
// summaries are computed once.
type GradientAblation struct {
	// Recovery of the ground-truth groups by each summary family, at the
	// initial model and after Rounds of training.
	GradRecoveryRound0 float64
	GradRecoveryRoundK float64
	PYRecovery         float64
	// CrossRoundAgreement is the Rand index between the gradient
	// clusterings at round 0 and round K — low values mean the
	// assignments drifted and re-clustering was necessary.
	CrossRoundAgreement float64
	Rounds              int
	// GradientBytes and PYBytes compare the per-client summary wire
	// sizes: a gradient summary is one float per model parameter and
	// must be re-sent whenever the model moves, while P(y) is Θ(classes)
	// and sent once.
	GradientBytes int
	PYBytes       int
}

// RunGradientAblation clusters one skewed workload three ways: gradient
// summaries at round 0, gradient summaries after a few training rounds,
// and P(y) histograms (which never change).
func RunGradientAblation(scale Scale, seed uint64) *GradientAblation {
	w := buildStandardWorkload("cifar", 10, scale, seed)
	truth := w.Plan.Group
	rounds := 80
	if scale == Full {
		rounds = 120
	}

	// P(y) reference clustering.
	py := core.BuildSummaries(w.TrainSets, core.PY, 0, 0, stats.NewRNG(stats.DeriveSeed(seed, seedNoise)))
	pyLabels := core.Cluster(py)

	// Gradient clustering at the initial global model.
	model := w.Arch.Build(stats.NewRNG(stats.DeriveSeed(seed, seedEngine)))
	params0 := model.ParamsVector()
	scratch := model.Clone()
	grads0 := make([][]float64, len(w.TrainSets))
	for i, d := range w.TrainSets {
		grads0[i] = core.GradientSummary(scratch, params0, d)
	}
	labels0 := core.ClusterGradients(grads0)

	// Advance the global model with a plain random-selection run, then
	// recompute gradient summaries at the new parameters.
	ec := defaultEngine(scale, 0)
	ec.MaxRounds = rounds
	ec.EvalEvery = rounds
	res := fl.NewEngine(ec.ToFL(w, seed), w.Clients, selection.NewRandom()).Run()
	gradsK := make([][]float64, len(w.TrainSets))
	for i, d := range w.TrainSets {
		gradsK[i] = core.GradientSummary(scratch, res.FinalParams, d)
	}
	labelsK := core.ClusterGradients(gradsK)

	return &GradientAblation{
		GradRecoveryRound0:  cluster.ExactRecovery(labels0, truth),
		GradRecoveryRoundK:  cluster.ExactRecovery(labelsK, truth),
		PYRecovery:          cluster.ExactRecovery(pyLabels, truth),
		CrossRoundAgreement: cluster.RandIndex(labels0, labelsK),
		Rounds:              rounds,
		GradientBytes:       8 * len(grads0[0]),
		PYBytes:             py[0].Bytes(),
	}
}

// String renders the comparison.
func (a *GradientAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Ablation: gradient summaries vs P(y) histograms (drift over %d rounds) ==\n", a.Rounds)
	t := metrics.NewTable("summary", "recovery@round0", fmt.Sprintf("recovery@round%d", a.Rounds), "stable-across-rounds")
	t.AddRow("gradient+cosine", a.GradRecoveryRound0, a.GradRecoveryRoundK,
		fmt.Sprintf("rand-index %.2f", a.CrossRoundAgreement))
	t.AddRow("P(y)+Hellinger", a.PYRecovery, a.PYRecovery, "identical (computed once)")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "per-client summary size: gradient %d bytes (re-sent every re-cluster) vs P(y) %d bytes (once)\n",
		a.GradientBytes, a.PYBytes)
	b.WriteString("measured nuance: on stationary synthetic data the gradient clusters stay\n" +
		"stable, so the paper's drift concern is workload-dependent — but the cost\n" +
		"asymmetry (model-sized uploads plus a full local forward/backward per\n" +
		"refresh, vs one tiny histogram) holds regardless.\n")
	return b.String()
}
