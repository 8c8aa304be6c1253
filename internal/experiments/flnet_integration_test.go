package experiments

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"haccs/internal/cluster"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/stats"
)

const (
	tcpSeed    = 31
	tcpClients = 8
	tcpClasses = 4
	tcpK       = 4
)

// wireRun is one run of the wire ≡ engine harness: the same workload
// trained through fl.Engine and, over loopback TCP, through
// flnet.Coordinator.
type wireRun struct {
	w   *Workload
	eng *fl.Engine
	// sched is the coordinator's HACCS scheduler, built from the wire
	// registrations alone.
	sched *core.Scheduler
}

// runWireAndEngine runs tcpSeed's quick-scale workload for n rounds
// twice: through fl.Engine, round by round, and through a
// flnet.Coordinator whose clients run fl.Client.Remote and whose
// scheduler is built from their registrations and initialised exactly
// as NewEngine initialises the engine's. tune adjusts the shared
// configuration. The test fails at the first round where the two paths
// differ in the selection, any Outcome field, the clock or a bit of the
// global model; each sees every round's outcome, which both paths share.
func runWireAndEngine(t *testing.T, n int, tune func(*fl.Config, *Workload), each func(round int, out rounds.Outcome)) *wireRun {
	t.Helper()
	spec := specFor("mnist", tcpClasses, Quick)
	w := BuildWorkload(spec, dataPlanForTCP(tcpClients, tcpClasses), archFor(spec, Quick), tcpSeed)
	ec := defaultEngine(Quick, 0)
	ec.ClientsPerRound, ec.MaxRounds = tcpK, n
	cfg := ec.ToFL(w, tcpSeed)
	if tune != nil {
		tune(&cfg, w)
	}
	eng := fl.NewEngine(cfg, w.Clients, HACCSOnly(w, core.PY, 0, 0.5, tcpSeed))

	// The clients are waited for after the server's shutdown (defers run
	// last-in first-out).
	var wg sync.WaitGroup
	defer wg.Wait()
	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Each client registers its (noiseless) P(y) counts and the engine's
	// latency for it, then serves the client step over its session.
	for _, c := range w.Clients {
		info, counts, train := c.Remote(cfg)
		cl := &flnet.Client{
			Reg:     flnet.RegisterFromSummary(info.ID, counts, nil, info.Latency, info.NumSamples),
			Trainer: flnet.TrainerFunc(train),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(srv.Addr()); err != nil {
				t.Errorf("client %d: %v", cl.Reg.ClientID, err)
			}
		}()
	}
	regs, err := srv.AcceptClients(len(w.Clients))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]core.Summary, len(regs))
	infos := make([]fl.ClientInfo, len(regs))
	for _, r := range regs {
		sums[r.ClientID] = core.Summary{Kind: core.PY, Label: r.LabelHistogram()}
		infos[r.ClientID] = fl.ClientInfo{ID: r.ClientID, Latency: r.LatencyEstimate, NumSamples: r.NumSamples}
	}
	sched := core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.5}, sums)
	sched.Init(infos, stats.NewRNG(stats.DeriveSeed(cfg.Seed, 1)))
	initial := cfg.Arch.Build(stats.NewRNG(stats.DeriveSeed(cfg.Seed, 0))).ParamsVector()
	coord, err := flnet.NewCoordinator(srv, flnet.CoordinatorConfig{
		ClientsPerRound: cfg.ClientsPerRound,
		Deadline:        cfg.RoundDeadline,
		Mode:            cfg.Mode,
		Async:           cfg.Async,
	}, sched, initial)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < n; round++ {
		want := eng.RunRound(round)
		got := coord.RunRound(round)
		if diff := outcomeDiff(want, got); diff != "" {
			t.Fatalf("round %d: wire outcome differs from the engine's in %s\nengine %+v\nwire   %+v", round, diff, want, got)
		}
		if a, b := eng.Clock(), coord.Clock(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round %d: wire clock %v, engine clock %v", round, b, a)
		}
		if i := firstBitDiff(eng.Runner().Global(), coord.Global()); i >= 0 {
			t.Fatalf("round %d: wire global differs from the engine's at parameter %d", round, i)
		}
		if each != nil {
			each(round, want)
		}
	}
	return &wireRun{w: w, eng: eng, sched: sched}
}

// outcomeDiff names the first Outcome field in which a and b differ
// ("" when they are equal, floats compared by their bits).
func outcomeDiff(a, b rounds.Outcome) string {
	switch {
	case !slices.Equal(a.Selected, b.Selected):
		return "Selected"
	case !slices.Equal(a.Reporters, b.Reporters):
		return "Reporters"
	case len(a.Losses) != len(b.Losses) || firstBitDiff(a.Losses, b.Losses) >= 0:
		return "Losses"
	case !slices.Equal(a.Cut, b.Cut):
		return "Cut"
	case !slices.Equal(a.Failed, b.Failed):
		return "Failed"
	case math.Float64bits(a.RoundVirtual) != math.Float64bits(b.RoundVirtual):
		return "RoundVirtual"
	case a.Aggregated != b.Aggregated:
		return "Aggregated"
	}
	return ""
}

// firstBitDiff returns the first index where two equal-length vectors
// differ in a bit, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func meanLoss(out rounds.Outcome) float64 {
	mean := 0.0
	for _, l := range out.Losses {
		mean += l / float64(len(out.Losses))
	}
	return mean
}

// TestFederatedTrainingOverTCP runs the full HACCS pipeline over real
// TCP connections — clients register P(y) summaries, the server clusters
// them and drives FedAvg rounds where each selected client trains a real
// model — and holds it to the in-process engine bit for bit, flat and
// synchronous, with and without a straggler deadline. This is the
// deployment-path analogue of the paper's gRPC/PySyft implementation
// (Fig. 2 end to end).
func TestFederatedTrainingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network training run skipped in -short mode")
	}
	t.Run("sync", func(t *testing.T) {
		firstLoss, lastLoss := 0.0, 0.0
		run := runWireAndEngine(t, 30, nil, func(round int, out rounds.Outcome) {
			if !out.Aggregated || len(out.Failed) != 0 || len(out.Cut) != 0 {
				t.Fatalf("round %d outcome = %+v, want a clean synchronous round", round, out)
			}
			if round == 0 {
				firstLoss = meanLoss(out)
			}
			lastLoss = meanLoss(out)
		})
		if got := run.sched.NumClusters(); got != tcpClasses {
			t.Fatalf("server clustered wire summaries into %d clusters, want %d: %v",
				got, tcpClasses, run.sched.ClusterLabels())
		}
		if p := cluster.Purity(run.sched.ClusterLabels(), run.w.Plan.Group); p != 1 {
			t.Fatalf("wire-summary clusters impure: %.2f", p)
		}
		if lastLoss >= firstLoss {
			t.Errorf("federated training over TCP did not reduce loss: %.3f -> %.3f", firstLoss, lastLoss)
		}
		// The aggregated model, equal on both paths, must classify.
		if acc, _, _ := run.eng.Evaluate(); acc < 0.4 {
			t.Errorf("TCP-trained global model accuracy %.3f, want >= 0.4", acc)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		cutRounds, aggregated := 0, 0
		runWireAndEngine(t, 30, func(cfg *fl.Config, w *Workload) {
			// The median client latency: some selections miss it.
			bytes := cfg.Arch.Build(stats.NewRNG(1)).WireBytes()
			lats := make([]float64, len(w.Clients))
			for i, c := range w.Clients {
				lats[i] = c.Info(cfg, bytes).Latency
			}
			sort.Float64s(lats)
			cfg.RoundDeadline = lats[len(lats)/2]
		}, func(round int, out rounds.Outcome) {
			if len(out.Cut) > 0 {
				cutRounds++
			}
			if out.Aggregated {
				aggregated++
			}
		})
		if cutRounds == 0 || aggregated == 0 {
			t.Fatalf("deadline cut %d rounds and %d aggregated; the row needs both", cutRounds, aggregated)
		}
	})
}

// dataPlanForTCP builds a small group partition: nClient clients evenly
// assigned to `classes` single-label groups (tight clusters the server
// must recover from wire summaries).
func dataPlanForTCP(nClient, classes int) *dataset.PartitionPlan {
	groups := make([][]int, classes)
	for c := 0; c < classes; c++ {
		groups[c] = []int{c}
	}
	return dataset.GroupPlan(groups, nClient/classes, 200)
}
