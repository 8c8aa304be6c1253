package haccs

// One benchmark per table and figure of the HACCS evaluation, plus
// microbenchmarks for the hot substrate paths. Each figure benchmark
// regenerates the corresponding result at Quick scale and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// doubles as the reproduction harness (use cmd/haccs-bench -scale=full
// for paper-scale client counts).

import (
	"math"
	"testing"

	"haccs/internal/cluster"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/experiments"
	"haccs/internal/fl"
	"haccs/internal/nn"
	"haccs/internal/simnet"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
	"haccs/internal/tensor"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 1

// reportTTA attaches each strategy's time-to-accuracy as a custom
// benchmark metric (virtual seconds, not wall time).
func reportTTA(b *testing.B, r *experiments.CompareReport) {
	b.Helper()
	for _, run := range r.Runs {
		if run.TTAReached {
			b.ReportMetric(run.TTA, "vsec_tta_"+sanitize(run.Name))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig1_Dropout regenerates the §III motivation experiment
// (Table I partition + Fig. 1a/1b): per-group accuracy under random vs
// whole-group permanent dropout.
func BenchmarkFig1_Dropout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(experiments.Quick, benchSeed)
		b.ReportMetric(r.MeanSurvivingGroupAcc(), "acc_surviving_groups")
		b.ReportMetric(r.MeanDroppedGroupAcc(), "acc_dropped_groups")
	}
}

// BenchmarkFig5a_CIFAR regenerates the CIFAR-10 scheduling-performance
// comparison (Fig. 5a): five strategies racing to 50% accuracy.
func BenchmarkFig5a_CIFAR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig5("cifar", experiments.Quick, benchSeed))
	}
}

// BenchmarkFig5b_FEMNIST regenerates the FEMNIST comparison (Fig. 5b).
func BenchmarkFig5b_FEMNIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig5("femnist", experiments.Quick, benchSeed))
	}
}

// BenchmarkFig6_Dropout regenerates the 10% transient-dropout comparison
// on 20-class FEMNIST (Fig. 6).
func BenchmarkFig6_Dropout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig6(experiments.Quick, benchSeed))
	}
}

// BenchmarkFig7_Skew regenerates the label-skew sensitivity grid
// (Fig. 7): IID / 5-label / high-skew × five strategies.
func BenchmarkFig7_Skew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7(experiments.Quick, benchSeed)
		for li, level := range r.Levels {
			best := r.Reports[li].Best()
			if best.TTAReached {
				b.ReportMetric(best.TTA, "vsec_best_"+level.String())
			}
		}
	}
}

// BenchmarkFig8a_EpsilonClustering regenerates the privacy-vs-clustering
// sweep (Fig. 8a).
func BenchmarkFig8a_EpsilonClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig8a(experiments.Quick, benchSeed)
		if acc, ok := r.Accuracy(0.1, 1000); ok {
			b.ReportMetric(acc, "cluster_acc_eps0.1_m1000")
		}
		if acc, ok := r.Accuracy(0.001, 100); ok {
			b.ReportMetric(acc, "cluster_acc_eps0.001_m100")
		}
	}
}

// BenchmarkFig8b_EpsilonTTA regenerates the privacy-vs-TTA comparison
// (Fig. 8b): HACCS-P(y) under three privacy budgets vs random.
func BenchmarkFig8b_EpsilonTTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig8b(experiments.Quick, benchSeed))
	}
}

// BenchmarkFig9_Rho regenerates the ρ sensitivity sweep (Fig. 9).
func BenchmarkFig9_Rho(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig9(experiments.Quick, benchSeed))
	}
}

// BenchmarkFig10_FeatureSkew regenerates the rotated-image feature-skew
// comparison (Fig. 10).
func BenchmarkFig10_FeatureSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTTA(b, experiments.RunFig10(experiments.Quick, benchSeed))
	}
}

// BenchmarkTable3_Inclusion regenerates the device-inclusion analysis at
// ρ=0.01 (Table III).
func BenchmarkTable3_Inclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunBias(core.PY, experiments.Quick, benchSeed)
		b.ReportMetric(float64(r.Buckets[2]), "clusters_75pct_included")
		b.ReportMetric(float64(r.Buckets[0]), "clusters_under_50pct")
	}
}

// BenchmarkFig11_Bias regenerates the fastest-vs-slowest accuracy-gap
// analysis (Fig. 11) for both summary kinds.
func BenchmarkFig11_Bias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []core.SummaryKind{core.PY, core.PXY} {
			r := experiments.RunBias(kind, experiments.Quick, benchSeed)
			b.ReportMetric(stats.Mean(r.AccGap), "mean_acc_gap_"+sanitize(kind.String()))
		}
	}
}

// BenchmarkTable2_LatencyModel characterizes the Table II heterogeneity
// model (input distribution, reported as the straggler ratio).
func BenchmarkTable2_LatencyModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := experiments.RunLatencyAblation(20000, benchSeed)
		b.ReportMetric(ab.StragglerRatio(), "straggler_ratio")
	}
}

// BenchmarkAblation_Clustering compares OPTICS auto-extraction against
// a DBSCAN radius grid on DP-noised summaries (DESIGN.md ablation).
func BenchmarkAblation_Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := experiments.RunClusteringAblation(experiments.Quick, 0.1, benchSeed)
		b.ReportMetric(ab.OPTICSAcc, "optics_recovery")
	}
}

// BenchmarkAblation_SummarySize verifies the Θ(c) vs Θ(c·p) summary
// footprint claim.
func BenchmarkAblation_SummarySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := experiments.RunSummarySizeAblation(experiments.Quick, benchSeed)
		py, pxy := 0, 0
		for j := range ab.PYBytes {
			py += ab.PYBytes[j]
			pxy += ab.PXYBytes[j]
		}
		b.ReportMetric(float64(pxy)/float64(py), "pxy_over_py_bytes")
	}
}

// --- substrate microbenchmarks ---

// BenchmarkMatMul measures the parallel GEMM kernel on a training-sized
// product.
func BenchmarkMatMul(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	x := tensor.New(128, 256)
	w := tensor.New(256, 128)
	x.RandNormal(0, 1, rng)
	w.RandNormal(0, 1, rng)
	dst := tensor.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, w)
	}
	b.SetBytes(int64(8 * (x.Size() + w.Size() + dst.Size())))
}

// BenchmarkLocalTrainRound measures one client's full local update (the
// engine's inner loop).
func BenchmarkLocalTrainRound(b *testing.B) {
	spec := dataset.SyntheticCIFAR().Compact(8, 8)
	gen := dataset.NewGenerator(spec, benchSeed)
	rng := stats.NewRNG(2)
	ld := dataset.MajorityNoise(0, 0.75, []int{1, 2, 3}, dataset.DefaultMajorityFractions)
	train := gen.Generate(ld.Draw(200, rng), rng)
	client := &fl.Client{ID: 0, Data: dataset.ClientData{Train: train, Test: train}}
	arch := nn.Arch{Kind: "mlp", In: spec.FeatureDim(), Hidden: []int{32}, Classes: 10}
	model := arch.Build(stats.NewRNG(3))
	global := model.ParamsVector()
	cfg := fl.LocalTrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.LocalTrain(model, global, cfg, stats.NewRNG(uint64(i)))
	}
}

// BenchmarkLeNetForward measures one LeNet forward pass over a 32-image
// batch at full-scale geometry. It is the training Forward, caches and
// all; evaluation runs the same pass.
func BenchmarkLeNetForward(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	net := nn.NewLeNet(1, 16, 16, 10, 4, 8, rng)
	x := tensor.New(32, 256)
	x.RandNormal(0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkHellingerDistanceMatrix measures the server's pairwise
// distance computation for a 50-client roster.
func BenchmarkHellingerDistanceMatrix(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	sums := make([]core.Summary, 50)
	for i := range sums {
		h := stats.NewLabelHistogram(10)
		for j := 0; j < 500; j++ {
			h.AddLabel(rng.Intn(10))
		}
		sums[i] = core.Summary{Kind: core.PY, Label: h}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DistanceMatrix(sums)
	}
}

// BenchmarkOPTICS measures clustering a 50-client distance matrix.
func BenchmarkOPTICS(b *testing.B) {
	m := cluster.FromFunc(50, func(i, j int) float64 {
		base := 0.1
		if i/5 != j/5 {
			base = 0.8
		}
		// Pure per-pair jitter (FromFunc may call dist concurrently, so
		// no shared RNG): splitmix64-style hash of the pair index.
		h := uint64(i*50+j) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
		return base + 0.05*float64(h>>11)/float64(1<<53)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.OPTICS(m, 2, math.Inf(1))
		res.ExtractBestSilhouette(m, 0)
	}
}

// BenchmarkLaplaceMechanism measures summary noising.
func BenchmarkLaplaceMechanism(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	h := stats.NewLabelHistogram(62)
	for i := 0; i < 1000; i++ {
		h.AddLabel(rng.Intn(62))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.LaplaceMechanism(h, 0.1, rng)
	}
}

// BenchmarkSchedulerSelect measures one HACCS selection round on a
// 50-client roster.
func BenchmarkSchedulerSelect(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	var sums []core.Summary
	var infos []fl.ClientInfo
	for i := 0; i < 50; i++ {
		h := stats.NewLabelHistogram(10)
		major := i % 10
		for j := 0; j < 400; j++ {
			if rng.Float64() < 0.75 {
				h.AddLabel(major)
			} else {
				h.AddLabel(rng.Intn(10))
			}
		}
		sums = append(sums, core.Summary{Kind: core.PY, Label: h})
		infos = append(infos, fl.ClientInfo{ID: i, Latency: 1 + rng.Float64()*3, NumSamples: 400})
	}
	sched := core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.75}, sums)
	sched.Init(infos, stats.NewRNG(2))
	available := make([]bool, 50)
	for i := range available {
		available[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Select(i, available, 10)
	}
}

// BenchmarkAblation_Distance compares the Hellinger choice against
// alternative bounded distribution distances (DESIGN.md ablation).
func BenchmarkAblation_Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := experiments.RunDistanceAblation(experiments.Quick, benchSeed)
		if accs := ab.Recovery["hellinger"]; len(accs) > 0 {
			b.ReportMetric(accs[0], "hellinger_recovery_clean")
		}
	}
}

// BenchmarkAblation_Gradient measures the §IV-A gradient-summary
// alternative: recovery, cross-round stability, and the wire-size
// asymmetry against P(y).
func BenchmarkAblation_Gradient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := experiments.RunGradientAblation(experiments.Quick, benchSeed)
		b.ReportMetric(ab.GradRecoveryRound0, "gradient_recovery")
		b.ReportMetric(ab.CrossRoundAgreement, "cross_round_rand_index")
		b.ReportMetric(float64(ab.GradientBytes)/float64(ab.PYBytes), "gradient_over_py_bytes")
	}
}

// telemetryBenchWorkload builds a small fixed roster + config for the
// engine-overhead benchmarks below.
func telemetryBenchWorkload(b *testing.B) ([]*fl.Client, fl.Config, func() fl.Strategy) {
	b.Helper()
	spec := dataset.SyntheticCIFAR().Compact(8, 8)
	planRNG := stats.NewRNG(stats.DeriveSeed(benchSeed, 14))
	plan := dataset.MajorityNoisePlan(12, 10, 60, 80, planRNG)
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(benchSeed, 10))
	dataRNG := stats.NewRNG(stats.DeriveSeed(benchSeed, 110))
	profRNG := stats.NewRNG(stats.DeriveSeed(benchSeed, 11))
	clientData := plan.Materialize(gen, 0.8, dataRNG)
	roster := make([]*fl.Client, len(clientData))
	trainSets := make([]*dataset.Dataset, len(clientData))
	for i, cd := range clientData {
		roster[i] = &fl.Client{ID: i, Data: cd, Profile: simnet.SampleProfile(profRNG)}
		trainSets[i] = cd.Train
	}
	cfg := fl.Config{
		Arch:                nn.Arch{Kind: "mlp", In: spec.FeatureDim(), Hidden: []int{16}, Classes: 10},
		Seed:                benchSeed,
		Local:               fl.LocalTrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05},
		ClientsPerRound:     4,
		MaxRounds:           5,
		EvalEvery:           5,
		PerSampleComputeSec: 0.01,
	}
	strat := func() fl.Strategy {
		sums := core.BuildSummaries(trainSets, core.PY, 0, 0, stats.NewRNG(7))
		return core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.75}, sums)
	}
	return roster, cfg, strat
}

// BenchmarkEngineRun_NilTelemetry measures a full 5-round HACCS run
// with the telemetry hooks compiled in but disabled (Tracer and
// Metrics nil). Comparing against BenchmarkEngineRun_Traced — and
// against the pre-instrumentation engine via git history — shows the
// nil fast path costs only dead branches.
func BenchmarkEngineRun_NilTelemetry(b *testing.B) {
	roster, cfg, strat := telemetryBenchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.NewEngine(cfg, roster, strat()).Run()
	}
}

// BenchmarkEngineRun_Traced is the same run with a live in-memory
// trace and metrics registry, bounding the cost of full
// instrumentation.
func BenchmarkEngineRun_Traced(b *testing.B) {
	roster, cfg, strat := telemetryBenchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sink := &telemetry.MemorySink{}
		reg := telemetry.NewRegistry()
		cfg.Tracer = sink
		cfg.Metrics = reg
		b.StartTimer()
		fl.NewEngine(cfg, roster, strat()).Run()
	}
}

// BenchmarkRegistryHotPath measures the per-event cost of the three
// collector types on the instrumented hot path.
func BenchmarkRegistryHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i % 100))
	}
}
