// Dropout robustness: when a cluster's fastest device disappears, HACCS
// substitutes the next-fastest device with the same data distribution, so
// training barely notices — the paper's §V-C scenario. This example runs
// HACCS and Oort under 20% per-epoch transient dropout and reports both
// curves plus a per-cluster substitution trace.
//
// Run with: go run ./examples/dropout
package main

import (
	"fmt"

	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/metrics"
	"haccs/internal/nn"
	"haccs/internal/selection"
	"haccs/internal/simnet"
	"haccs/internal/stats"
)

func main() {
	const (
		seed        = 7
		clients     = 24
		classes     = 8
		rounds      = 60
		k           = 5
		dropoutRate = 0.20
	)

	spec := dataset.SyntheticFEMNIST(classes).Compact(8, 8)
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(seed, 1))
	plan := dataset.MajorityNoisePlan(clients, classes, 120, 240, stats.NewRNG(stats.DeriveSeed(seed, 2)))
	clientData := plan.Materialize(gen, 0.8, stats.NewRNG(stats.DeriveSeed(seed, 3)))

	profRNG := stats.NewRNG(stats.DeriveSeed(seed, 4))
	roster := make([]*fl.Client, clients)
	trainSets := make([]*dataset.Dataset, clients)
	for i, cd := range clientData {
		roster[i] = &fl.Client{ID: i, Data: cd, Profile: simnet.SampleProfile(profRNG)}
		trainSets[i] = cd.Train
	}

	// The identical dropout schedule hits both strategies (the paper
	// seeds its RNGs so the same devices drop for every strategy).
	dropout := simnet.TransientDropout{
		Rate: dropoutRate,
		Seed: stats.DeriveSeed(seed, 5),
	}
	cfg := fl.Config{
		Arch:                nn.Arch{Kind: "mlp", In: spec.FeatureDim(), Hidden: []int{32}, Classes: classes},
		Seed:                stats.DeriveSeed(seed, 6),
		Local:               fl.LocalTrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05},
		ClientsPerRound:     k,
		MaxRounds:           rounds,
		EvalEvery:           5,
		PerSampleComputeSec: 0.01,
		Dropout:             dropout,
		RecordSelections:    true,
	}

	summaries := core.BuildSummaries(trainSets, core.PY, 0, 0, stats.NewRNG(stats.DeriveSeed(seed, 7)))
	haccs := core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.75}, summaries)

	fmt.Printf("running HACCS-P(y) and Oort with %.0f%% per-epoch dropout...\n", dropoutRate*100)
	haccsRes := fl.NewEngine(cfg, roster, haccs).Run()
	oortRes := fl.NewEngine(cfg, roster, selection.NewOort()).Run()

	tab := metrics.NewTable("round", "haccs-acc", "oort-acc")
	for i := range haccsRes.History {
		tab.AddRow(haccsRes.History[i].Round, haccsRes.History[i].Acc, oortRes.History[i].Acc)
	}
	fmt.Print(tab.String())
	fmt.Printf("final accuracy: haccs %.3f, oort %.3f\n\n", haccsRes.FinalAccuracy(), oortRes.FinalAccuracy())

	// Substitution trace: how many distinct devices per cluster HACCS
	// actually used — dropout forces rotation inside clusters.
	used := map[int]map[int]bool{}
	labels := haccs.ClusterLabels()
	for _, sel := range haccsRes.Selected {
		for _, id := range sel {
			c := labels[id]
			if used[c] == nil {
				used[c] = map[int]bool{}
			}
			used[c][id] = true
		}
	}
	trace := metrics.NewTable("cluster", "members", "distinct-devices-used")
	for c, members := range haccs.Clusters() {
		trace.AddRow(c, len(members), len(used[c]))
	}
	fmt.Println("HACCS per-cluster substitution under dropout:")
	fmt.Print(trace.String())
}
