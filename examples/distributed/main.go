// Distributed: the full HACCS pipeline over real TCP connections, in one
// process for convenience — a coordinator and N client goroutines that
// could just as well be separate machines. Clients register privacy-
// noised P(y) summaries; the coordinator clusters them server-side,
// schedules clusters per round, pushes global parameters, and folds the
// replies with federated averaging. This mirrors the paper's
// gRPC/PySyft deployment (Fig. 2) end to end. Each client registers and
// trains through fl.Client.Remote — the simulator's own client step,
// which TestFederatedTrainingOverTCP holds equal to fl.Engine bit for
// bit — and the coordinator seeds its model and scheduler from the
// fl.Config as fl.NewEngine does.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sync"

	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/flnet"
	"haccs/internal/metrics"
	"haccs/internal/nn"
	"haccs/internal/simnet"
	"haccs/internal/stats"
)

func main() {
	const (
		seed    = 23
		nClient = 12
		classes = 6
		k       = 4
		rounds  = 40
		eps     = 0.5 // differential-privacy budget for the uploaded summaries
	)

	// Build the federated workload: 6 majority-label groups of 2, with
	// Table II system profiles.
	spec := dataset.SyntheticMNIST().Compact(8, 8)
	spec.Classes = classes
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(seed, 1))
	plan := dataset.MajorityNoisePlan(nClient, classes, 150, 250, stats.NewRNG(stats.DeriveSeed(seed, 2)))
	clientData := plan.Materialize(gen, 0.8, stats.NewRNG(stats.DeriveSeed(seed, 3)))
	profRNG := stats.NewRNG(stats.DeriveSeed(seed, 4))
	cfg := fl.Config{
		Arch:                nn.Arch{Kind: "mlp", In: spec.FeatureDim(), Hidden: []int{32}, Classes: classes},
		Seed:                stats.DeriveSeed(seed, 5),
		Local:               fl.LocalTrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05},
		PerSampleComputeSec: 0.01,
	}

	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	fmt.Printf("coordinator listening on %s\n", srv.Addr())

	// Launch the clients.
	var wg sync.WaitGroup
	for i := 0; i < nClient; i++ {
		me := &fl.Client{ID: i, Data: clientData[i], Profile: simnet.SampleProfile(profRNG)}
		info, counts, train := me.Remote(cfg)
		// The client noises its own histogram before upload: the
		// coordinator never sees true counts.
		noised := stats.LaplaceMechanism(&stats.Histogram{Counts: counts}, eps, stats.NewRNG(stats.DeriveSeed(seed, uint64(2000+i))))
		c := &flnet.Client{
			Reg:     flnet.RegisterFromSummary(i, noised.Counts, nil, info.Latency, info.NumSamples),
			Trainer: flnet.TrainerFunc(train),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Run(srv.Addr()); err != nil {
				log.Printf("client %d: %v", c.Reg.ClientID, err)
			}
		}()
	}

	regs, err := srv.AcceptClients(nClient)
	if err != nil {
		log.Fatalf("accept: %v", err)
	}
	fmt.Printf("registered %d clients (P(y) summaries noised at eps=%g)\n", len(regs), eps)

	// Server-side HACCS: cluster the wire summaries, then schedule.
	sums := make([]core.Summary, nClient)
	infos := make([]fl.ClientInfo, nClient)
	for _, r := range regs {
		sums[r.ClientID] = core.Summary{Kind: core.PY, Label: r.LabelHistogram()}
		infos[r.ClientID] = fl.ClientInfo{ID: r.ClientID, Latency: r.LatencyEstimate, NumSamples: r.NumSamples}
	}
	sched := core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.75}, sums)
	sched.Init(infos, stats.NewRNG(stats.DeriveSeed(cfg.Seed, 1)))
	fmt.Printf("coordinator clustered clients into %d groups: %v\n", sched.NumClusters(), sched.ClusterLabels())

	// The shared round runtime drives selection, dispatch, aggregation
	// and loss feedback over the wire — the same state machine the
	// in-process simulation engine uses. Refreshed summaries piggybacked
	// on replies feed the scheduler's re-clustering.
	global := cfg.Arch.Build(stats.NewRNG(stats.DeriveSeed(cfg.Seed, 0)))
	coord, err := flnet.NewCoordinator(srv, flnet.CoordinatorConfig{
		ClientsPerRound: k,
		OnSummary: func(id int, counts []float64) {
			sched.UpdateSummaries(map[int]core.Summary{
				id: {Kind: core.PY, Label: &stats.Histogram{Counts: counts}},
			})
		},
	}, sched, global.ParamsVector())
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	tab := metrics.NewTable("round", "selected", "mean-loss")
	for round := 0; round < rounds; round++ {
		out := coord.RunRound(round)
		if round%8 == 0 || round == rounds-1 {
			mean := 0.0
			for _, l := range out.Losses {
				mean += l / float64(len(out.Losses))
			}
			tab.AddRow(round, fmt.Sprintf("%v", out.Selected), mean)
		}
	}
	srv.Close()
	wg.Wait()
	fmt.Print(tab.String())

	// Evaluate the aggregated model against every client's test data.
	global.SetParamsVector(coord.Global())
	total := 0.0
	for i := range clientData {
		_, acc := global.Evaluate(clientData[i].Test.X, clientData[i].Test.Y)
		total += acc
	}
	fmt.Printf("final mean test accuracy across %d clients: %.3f\n", nClient, total/float64(nClient))
}
