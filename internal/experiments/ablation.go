package experiments

import (
	"fmt"
	"math"
	"strings"

	"haccs/internal/cluster"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/metrics"
	"haccs/internal/simnet"
	"haccs/internal/stats"
)

// newEngineForReport wires an EngineConfig and workload into an engine.
func newEngineForReport(ec EngineConfig, w *Workload, s fl.Strategy, seed uint64) *fl.Engine {
	return fl.NewEngine(ec.ToFL(w, seed), w.Clients, s)
}

// ClusteringAblation compares OPTICS auto-extraction against DBSCAN at a
// fixed radius on DP-noised P(y) summaries — the DESIGN.md ablation for
// the paper's "OPTICS has one less hyperparameter" argument.
type ClusteringAblation struct {
	Epsilon   float64
	OPTICSAcc float64
	DBSCANAcc map[float64]float64 // eps radius -> recovery accuracy
	// HierarchicalAcc is agglomerative clustering's recovery per
	// linkage, cut at the (oracle) true cluster count — an upper bound
	// DBSCAN/OPTICS must approach without knowing k.
	HierarchicalAcc map[string]float64
	GroundTruth     int // number of true clusters
}

// dbscanRadiusGrid is the radius sweep DBSCAN is given in the ablation;
// OPTICS auto-extraction competes against the best point of this grid
// without being told any radius.
var dbscanRadiusGrid = []float64{0.1, 0.25, 0.4, 0.5, 0.55, 0.6}

// RunClusteringAblation clusters one noised roster with both algorithms.
func RunClusteringAblation(scale Scale, eps float64, seed uint64) *ClusteringAblation {
	classes := 10
	spec := specFor("cifar", classes, scale)
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(seed, seedData))
	rng := stats.NewRNG(stats.DeriveSeed(seed, seedMisc+20))
	plan := dataset.PairedLabelPlan(classes, 2, 500, rng)
	var sets []*dataset.Dataset
	for i := 0; i < plan.NumClients(); i++ {
		sets = append(sets, gen.Generate(plan.Dists[i].Draw(plan.Samples[i], rng), rng))
	}
	noiseRNG := stats.NewRNG(stats.DeriveSeed(seed, seedNoise+21))
	sums := core.BuildSummaries(sets, core.PY, 0, eps, noiseRNG)
	m := core.DistanceMatrix(sums)

	ab := &ClusteringAblation{
		Epsilon:     eps,
		DBSCANAcc:   map[float64]float64{},
		GroundTruth: classes,
	}
	ab.OPTICSAcc = cluster.ExactRecovery(core.Cluster(sums), plan.Group)
	for _, radius := range dbscanRadiusGrid {
		labels := cluster.DBSCAN(m, radius, 2)
		ab.DBSCANAcc[radius] = cluster.ExactRecovery(labels, plan.Group)
	}
	ab.HierarchicalAcc = map[string]float64{}
	for _, link := range []cluster.Linkage{cluster.SingleLinkage, cluster.CompleteLinkage, cluster.AverageLinkage} {
		labels := cluster.Agglomerative(m, link).CutK(classes)
		ab.HierarchicalAcc[link.String()] = cluster.ExactRecovery(labels, plan.Group)
	}
	return ab
}

// String renders the comparison.
func (a *ClusteringAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Ablation: OPTICS auto-extract vs DBSCAN (eps=%g, %d true clusters) ==\n", a.Epsilon, a.GroundTruth)
	t := metrics.NewTable("algorithm", "radius", "exact-recovery")
	t.AddRow("optics-auto", "-", a.OPTICSAcc)
	for _, r := range dbscanRadiusGrid {
		t.AddRow("dbscan", r, a.DBSCANAcc[r])
	}
	for _, link := range []string{"single", "complete", "average"} {
		t.AddRow("agglomerative-"+link, "oracle-k", a.HierarchicalAcc[link])
	}
	b.WriteString(t.String())
	b.WriteString("agglomerative rows are cut at the true cluster count (an oracle);\n" +
		"density methods must find the structure without being told k.\n")
	return b.String()
}

// LatencyAblation characterizes the Table II latency model: per-category
// round-latency statistics for a reference workload, quantifying the
// straggler effect the schedulers exploit.
type LatencyAblation struct {
	// Mean and P95 latency (seconds) per category, indexed by
	// simnet.Category.
	Mean [4]float64
	P95  [4]float64
	// Count of sampled clients per category.
	Count [4]int
}

// RunLatencyAblation samples n profiles and evaluates the round latency
// each would impose for a fixed compute/model-size point.
func RunLatencyAblation(n int, seed uint64) *LatencyAblation {
	rng := stats.NewRNG(stats.DeriveSeed(seed, seedProfiles))
	perCat := make(map[simnet.Category][]float64)
	const computeSec = 1.0
	const modelBytes = 500_000
	for i := 0; i < n; i++ {
		p := simnet.SampleProfile(rng)
		perCat[p.Category] = append(perCat[p.Category], p.RoundLatency(computeSec, modelBytes))
	}
	ab := &LatencyAblation{}
	for c := simnet.Fast; c <= simnet.VerySlow; c++ {
		ls := perCat[c]
		ab.Count[c] = len(ls)
		if len(ls) == 0 {
			continue
		}
		ab.Mean[c] = stats.Mean(ls)
		ab.P95[c] = stats.Percentile(ls, 95)
	}
	return ab
}

// StragglerRatio returns mean(very-slow latency) / mean(fast latency),
// the headline heterogeneity factor.
func (a *LatencyAblation) StragglerRatio() float64 {
	if a.Mean[simnet.Fast] == 0 {
		return math.NaN()
	}
	return a.Mean[simnet.VerySlow] / a.Mean[simnet.Fast]
}

// String renders the latency table.
func (a *LatencyAblation) String() string {
	var b strings.Builder
	b.WriteString("== Ablation: Table II latency model (1s compute, 500KB model) ==\n")
	t := metrics.NewTable("category", "clients", "mean-latency", "p95-latency")
	for c := simnet.Fast; c <= simnet.VerySlow; c++ {
		t.AddRow(c.String(), a.Count[c], a.Mean[c], a.P95[c])
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "straggler ratio (very-slow / fast): %.2fx\n", a.StragglerRatio())
	return b.String()
}

// SummarySizeAblation verifies the paper's Θ(c) vs Θ(c·p) summary-size
// claim on a concrete roster.
type SummarySizeAblation struct {
	PYBytes  []int
	PXYBytes []int
}

// RunSummarySizeAblation measures summary wire sizes on the standard
// workload.
func RunSummarySizeAblation(scale Scale, seed uint64) *SummarySizeAblation {
	w := buildStandardWorkload("cifar", 10, scale, seed)
	ab := &SummarySizeAblation{}
	for _, d := range w.TrainSets {
		ab.PYBytes = append(ab.PYBytes, core.Summarize(d, core.PY, 0).Bytes())
		ab.PXYBytes = append(ab.PXYBytes, core.Summarize(d, core.PXY, 0).Bytes())
	}
	return ab
}

// String renders mean sizes.
func (a *SummarySizeAblation) String() string {
	toF := func(xs []int) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = float64(v)
		}
		return out
	}
	return fmt.Sprintf("== Ablation: summary wire size ==\nP(y):   mean %.0f bytes\nP(X|y): mean %.0f bytes\n",
		stats.Mean(toF(a.PYBytes)), stats.Mean(toF(a.PXYBytes)))
}
