package experiments

import (
	"fmt"
	"strings"

	"haccs/internal/cluster"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/metrics"
	"haccs/internal/stats"
)

// SkewLevel names the three Fig. 7 data distributions.
type SkewLevel int

const (
	// SkewIID gives every client the uniform distribution over all
	// labels and equal data volume.
	SkewIID SkewLevel = iota
	// SkewModerate assigns 5 random labels per client.
	SkewModerate
	// SkewHigh assigns one majority label plus noise labels (the §V-A
	// default).
	SkewHigh
)

// String implements fmt.Stringer.
func (s SkewLevel) String() string {
	switch s {
	case SkewIID:
		return "iid"
	case SkewModerate:
		return "5-labels"
	default:
		return "high-skew"
	}
}

// planForSkew builds the partition plan for a skew level.
func planForSkew(level SkewLevel, clients, classes int, scale Scale, rng *stats.RNG) *dataset.PartitionPlan {
	lo, hi := sampleBounds(scale)
	switch level {
	case SkewIID:
		// IID also equalizes volume across clients (§V-D1).
		return dataset.IIDPlan(clients, classes, (lo+hi)/2)
	case SkewModerate:
		return dataset.KRandomLabelsPlan(clients, classes, 5, (lo+hi)/2, rng)
	default:
		return dataset.MajorityNoisePlan(clients, classes, lo, hi, rng)
	}
}

// Fig7Report holds the time-to-50% results per skew level and strategy.
type Fig7Report struct {
	Levels  []SkewLevel
	Reports []*CompareReport // parallel to Levels
}

// RunFig7 reproduces the degree-of-label-skew sensitivity experiment
// (Fig. 7): time to 50% accuracy for all five strategies across IID,
// 5-label, and high-skew CIFAR-10 workloads.
func RunFig7(scale Scale, seed uint64) *Fig7Report {
	report := &Fig7Report{}
	for _, level := range []SkewLevel{SkewIID, SkewModerate, SkewHigh} {
		level := level
		target := 0.5
		ec := defaultEngine(scale, target)
		build := func(s uint64) (*Workload, EngineConfig) {
			spec := specFor("cifar", 10, scale)
			rng := stats.NewRNG(stats.DeriveSeed(s, seedMisc+3+uint64(level)))
			plan := planForSkew(level, clientCount(scale), 10, scale, rng)
			return BuildWorkload(spec, plan, archFor(spec, scale), s), ec
		}
		cr := runComparisonSeeds(fmt.Sprintf("Fig. 7 (%s skew)", level), 5, target, comparisonRepeats(scale), seed, build,
			func(w *Workload, i int, s uint64) fl.Strategy {
				return buildStrategyForRun(w, i, 0, 0.75, s)
			})
		report.Levels = append(report.Levels, level)
		report.Reports = append(report.Reports, cr)
	}
	return report
}

// String renders the Fig. 7 grid.
func (r *Fig7Report) String() string {
	var b strings.Builder
	b.WriteString("== Fig. 7: time to 50% accuracy vs degree of label skew (CIFAR-10) ==\n")
	t := metrics.NewTable("strategy", "tta(iid)", "tta(5-labels)", "tta(high-skew)")
	if len(r.Reports) == 0 {
		return b.String()
	}
	for i, run := range r.Reports[0].Runs {
		cells := []interface{}{run.Name}
		for _, cr := range r.Reports {
			rr := cr.Runs[i]
			if rr.TTAReached {
				cells = append(cells, fmt.Sprintf("%.1fs", rr.TTA))
			} else {
				cells = append(cells, "not reached")
			}
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig8aPoint is one cell of the ε-vs-clustering-accuracy sweep.
type Fig8aPoint struct {
	Epsilon   float64
	DataSize  int
	Accuracy  float64 // mean exact-cluster recovery over trials
	CI95      float64 // half-width of the 95% confidence interval
	NumTrials int
}

// Fig8aReport is the privacy/clustering-accuracy trade-off (Fig. 8a).
type Fig8aReport struct {
	Points []Fig8aPoint
}

// RunFig8a reproduces the clustering-accuracy experiment: 20 clients,
// exactly 2 per CIFAR-10 label with a 70/10/10/10 distribution; for each
// (ε, per-client data size) pair, cluster the noised P(y) summaries 10
// times and score the fraction of the 10 ground-truth clusters recovered
// exactly.
func RunFig8a(scale Scale, seed uint64) *Fig8aReport {
	epsilons := []float64{1, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001}
	dataSizes := []int{100, 500, 1000}
	trials := 10
	classes := 10
	clientsPerLabel := 2
	spec := specFor("cifar", classes, scale)
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(seed, seedData))

	report := &Fig8aReport{}
	for _, m := range dataSizes {
		// One fixed roster of client datasets per data size; trials vary
		// only the privacy noise, matching the paper's repeated-noising
		// protocol.
		rosterRNG := stats.NewRNG(stats.DeriveSeed(seed, seedMisc+10+uint64(m)))
		plan := dataset.PairedLabelPlan(classes, clientsPerLabel, m, rosterRNG)
		var sets []*dataset.Dataset
		for i := 0; i < plan.NumClients(); i++ {
			labels := plan.Dists[i].Draw(plan.Samples[i], rosterRNG)
			sets = append(sets, gen.Generate(labels, rosterRNG))
		}
		truth := plan.Group

		for _, eps := range epsilons {
			noiseRNG := stats.NewRNG(stats.DeriveSeed(seed, seedNoise+uint64(m)*31+uint64(eps*1e6)))
			accs := make([]float64, trials)
			for trial := 0; trial < trials; trial++ {
				sums := core.BuildSummaries(sets, core.PY, 0, eps, noiseRNG)
				labels := core.Cluster(sums)
				accs[trial] = cluster.ExactRecovery(labels, truth)
			}
			mean, hw := stats.MeanCI95(accs)
			report.Points = append(report.Points, Fig8aPoint{
				Epsilon: eps, DataSize: m, Accuracy: mean, CI95: hw, NumTrials: trials,
			})
		}
	}
	return report
}

// Accuracy returns the mean clustering accuracy for an (eps, size) cell.
func (r *Fig8aReport) Accuracy(eps float64, size int) (float64, bool) {
	for _, p := range r.Points {
		if p.Epsilon == eps && p.DataSize == size {
			return p.Accuracy, true
		}
	}
	return 0, false
}

// String renders the sweep.
func (r *Fig8aReport) String() string {
	var b strings.Builder
	b.WriteString("== Fig. 8a: epsilon vs clustering accuracy, P(y) summaries ==\n")
	t := metrics.NewTable("epsilon", "data-size", "cluster-accuracy", "ci95")
	for _, p := range r.Points {
		t.AddRow(p.Epsilon, p.DataSize, p.Accuracy, p.CI95)
	}
	b.WriteString(t.String())
	return b.String()
}

// RunFig8b reproduces the ε-vs-TTA experiment (Fig. 8b): HACCS-P(y)
// under ε ∈ {0.1, 0.01, 0.001} against the random baseline on the
// skewed CIFAR-10 workload.
func RunFig8b(scale Scale, seed uint64) *CompareReport {
	target := 0.5
	ec := defaultEngine(scale, target)
	epsilons := []float64{0, 0.1, 0.01, 0.001} // index 0 is the random baseline
	build := func(s uint64) (*Workload, EngineConfig) {
		return buildStandardWorkload("cifar", 10, scale, s), ec
	}
	report := runComparisonSeeds("Fig. 8b: epsilon vs TTA (CIFAR-10)", len(epsilons), target, comparisonRepeats(scale), seed, build,
		func(w *Workload, i int, s uint64) fl.Strategy {
			if i == 0 {
				return buildStrategyForRun(w, 0, 0, 0.75, s) // random
			}
			return HACCSOnly(w, core.PY, epsilons[i], 0.75, s)
		})
	// Disambiguate run names with their epsilon.
	for i := range report.Runs {
		if i > 0 {
			report.Runs[i].Name = fmt.Sprintf("haccs-P(y) eps=%g", epsilons[i])
		}
	}
	return report
}

// RunFig9 reproduces the ρ sensitivity sweep (Fig. 9): HACCS-P(y) on the
// skewed CIFAR-10 workload across ρ values; larger ρ (latency-favouring)
// converges faster in the paper.
func RunFig9(scale Scale, seed uint64) *CompareReport {
	target := 0.5
	rhos := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	ec := defaultEngine(scale, target)
	build := func(s uint64) (*Workload, EngineConfig) {
		return buildStandardWorkload("cifar", 10, scale, s), ec
	}
	report := runComparisonSeeds("Fig. 9: effect of rho (CIFAR-10)", len(rhos), target, comparisonRepeats(scale), seed, build,
		func(w *Workload, i int, s uint64) fl.Strategy {
			return HACCSOnly(w, core.PY, 0, rhos[i], s)
		})
	for i := range report.Runs {
		report.Runs[i].Name = fmt.Sprintf("rho=%g", rhos[i])
	}
	return report
}

// RunFig10 reproduces the feature-skew experiment (Fig. 10): half the
// clients hold images rotated 45°, with majority labels aligned to the
// rotation so that P(y) clustering cannot see the skew but P(X|y) can.
func RunFig10(scale Scale, seed uint64) *CompareReport {
	target := 0.5
	ec := defaultEngine(scale, target)
	build := func(s uint64) (*Workload, EngineConfig) {
		return buildFeatureSkewWorkload(scale, s), ec
	}
	return runComparisonSeeds("Fig. 10: label + feature skew (rotated synthetic MNIST)", 5, target, comparisonRepeats(scale), seed, build,
		func(w *Workload, i int, s uint64) fl.Strategy {
			return buildStrategyForRun(w, i, 0, 0.75, s)
		})
}

// buildFeatureSkewWorkload creates the rotated-MNIST workload: the
// standard majority/noise label skew, with every client whose majority
// label falls in the upper half of the class range holding 45°-rotated
// images (feature skew aligned with the majority label, §V-D4).
func buildFeatureSkewWorkload(scale Scale, seed uint64) *Workload {
	spec := specFor("mnist", 10, scale)
	lo, hi := sampleBounds(scale)
	planRNG := stats.NewRNG(stats.DeriveSeed(seed, seedMisc+4))
	// Two clients per (majority, rotation) pair keep the fine-grained
	// feature-skew groups redundant, as in the paper's 50-client roster.
	n := clientCount(scale)
	if n < 40 {
		n = 40
	}
	plan := dataset.MajorityNoisePlan(n, 10, lo, hi, planRNG)
	w := BuildWorkload(spec, plan, archFor(spec, scale), seed)
	for i, c := range w.Clients {
		if plan.Group[i]%2 == 1 {
			c.Data.Train = c.Data.Train.Rotate(45)
			c.Data.Test = c.Data.Test.Rotate(45)
			w.TrainSets[i] = c.Data.Train
		}
	}
	return w
}
