package experiments

import (
	"testing"

	"haccs/internal/core"
	"haccs/internal/fl"
	"haccs/internal/simnet"
)

// TestAllStrategiesConformance drives every selection strategy —
// baselines and both HACCS variants — through the engine under per-epoch
// dropout and verifies the engine's invariants hold (no panics, valid
// selections, monotone virtual time, training progress recorded). This
// is the cross-package contract test for fl.Strategy implementations.
func TestAllStrategiesConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	for i, name := range []string{"random", "tifl", "oort", "haccs-py", "haccs-pxy"} {
		i := i
		t.Run(name, func(t *testing.T) {
			w := buildStandardWorkload("cifar", 10, Quick, 99)
			ec := defaultEngine(Quick, 0)
			ec.MaxRounds = 12
			ec.EvalEvery = 4
			ec.Record = true
			ec.Dropout = simnet.TransientDropout{
				Rate: 0.25,
				Seed: 7,
			}
			s := buildStrategyForRun(w, i, 0, 0.75, 99)
			res := fl.NewEngine(ec.ToFL(w, 99), w.Clients, s).Run()
			if res.Rounds != 12 {
				t.Fatalf("rounds = %d", res.Rounds)
			}
			if len(res.Selected) != 12 {
				t.Fatalf("selections recorded for %d rounds", len(res.Selected))
			}
			// Engine already panics on invalid selections; check the
			// budget was used when clients were available.
			for r, sel := range res.Selected {
				if len(sel) == 0 {
					t.Errorf("round %d selected nobody despite 75%% availability", r)
				}
				if len(sel) > ec.ClientsPerRound {
					t.Errorf("round %d over budget: %d", r, len(sel))
				}
			}
			if len(res.History) == 0 {
				t.Fatal("no evaluations recorded")
			}
			if res.FinalAccuracy() <= 0 {
				t.Error("final accuracy not positive")
			}
		})
	}
}

// TestComparisonSeedAveraging verifies the multi-seed aggregation logic:
// a strategy reaching the target in all seeds reports the mean, and the
// ReachedCount/Repeats bookkeeping is correct.
func TestComparisonSeedAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	ec := defaultEngine(Quick, 0.2) // low bar: everyone reaches it
	ec.MaxRounds = 30
	report := runComparisonSeeds("avg-test", 1, 0.2, 2, 5,
		func(s uint64) (*Workload, EngineConfig) {
			return buildStandardWorkload("cifar", 10, Quick, s), ec
		},
		func(w *Workload, i int, s uint64) fl.Strategy {
			return buildStrategyForRun(w, 0, 0, 0.75, s) // random
		})
	run := report.Runs[0]
	if run.Repeats != 2 {
		t.Errorf("repeats = %d", run.Repeats)
	}
	if run.ReachedCount != 2 || !run.TTAReached {
		t.Errorf("reached %d/%d, TTAReached=%v", run.ReachedCount, run.Repeats, run.TTAReached)
	}
	if run.TTA <= 0 {
		t.Errorf("mean TTA = %v", run.TTA)
	}
	if run.Result == nil {
		t.Error("first-seed result not retained")
	}
}

// TestGradientAblationShape checks the §IV-A alternative-summary
// ablation: gradient clustering recovers the groups at round 0 and the
// wire-size asymmetry is large.
func TestGradientAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	r := RunGradientAblation(Quick, 2)
	if r.GradRecoveryRound0 < 0.8 {
		t.Errorf("gradient recovery at round 0 = %.2f", r.GradRecoveryRound0)
	}
	if r.PYRecovery < 0.8 {
		t.Errorf("P(y) recovery = %.2f", r.PYRecovery)
	}
	if r.CrossRoundAgreement < 0 || r.CrossRoundAgreement > 1 {
		t.Errorf("rand index %v", r.CrossRoundAgreement)
	}
	if r.GradientBytes < 100*r.PYBytes {
		t.Errorf("gradient summary (%dB) not >100x P(y) (%dB)", r.GradientBytes, r.PYBytes)
	}
}

// TestIntraClusterPolicyAblation compares PickFastest against
// PickWeighted end-to-end: the weighted policy must include strictly
// more distinct devices over a run (the §V-D5 bias mitigation) while
// still training successfully.
func TestIntraClusterPolicyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	distinct := map[string]int{}
	for _, tc := range []struct {
		name   string
		policy int
	}{{"fastest", 0}, {"weighted", 1}} {
		w := buildStandardWorkload("cifar", 10, Quick, 17)
		ec := defaultEngine(Quick, 0)
		ec.MaxRounds = 40
		ec.EvalEvery = 40
		ec.Record = true
		var s fl.Strategy = HACCSOnly(w, core.PY, 0, 0.75, 17)
		if tc.policy == 1 {
			s = HACCSOnlyWeighted(w, 0, 0.75, 17)
		}
		res := fl.NewEngine(ec.ToFL(w, 17), w.Clients, s).Run()
		seen := map[int]bool{}
		for _, sel := range res.Selected {
			for _, id := range sel {
				seen[id] = true
			}
		}
		distinct[tc.name] = len(seen)
	}
	if distinct["weighted"] <= distinct["fastest"] {
		t.Errorf("weighted policy used %d distinct devices, fastest used %d; expected strictly more",
			distinct["weighted"], distinct["fastest"])
	}
}

// TestFullScaleSmoke validates the Full-scale configuration end to end
// at a tiny round budget: 50 clients, LeNet-style CNN on 16x16 images,
// HACCS-P(y) selection. The full-length runs belong to
// `haccs-bench -scale full`; this just proves the path works.
func TestFullScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	w := buildStandardWorkload("cifar", 10, Full, 1)
	if w.NumClients() != 50 {
		t.Fatalf("full workload has %d clients", w.NumClients())
	}
	if w.Arch.Kind != "lenet" {
		t.Fatalf("full arch is %q, want lenet", w.Arch.Kind)
	}
	ec := defaultEngine(Full, 0)
	ec.MaxRounds = 2
	ec.EvalEvery = 2
	s := HACCSOnly(w, core.PY, 0, 0.75, 1)
	res := fl.NewEngine(ec.ToFL(w, 1), w.Clients, s).Run()
	if res.Rounds != 2 || len(res.History) == 0 {
		t.Fatalf("full-scale smoke run malformed: %+v", res)
	}
	if s.NumClusters() < 5 {
		t.Errorf("full-scale clustering found only %d clusters", s.NumClusters())
	}
}
