package fl

import (
	"math"
	"testing"

	"haccs/internal/dataset"
	"haccs/internal/nn"
	"haccs/internal/simnet"
	"haccs/internal/stats"
)

// fixedStrategy selects a predetermined rotation of clients.
type fixedStrategy struct {
	order [][]int
	inits int
	calls int
}

func (f *fixedStrategy) Name() string                       { return "fixed" }
func (f *fixedStrategy) Init(c []ClientInfo, r *stats.RNG)  { f.inits++ }
func (f *fixedStrategy) Update(e int, s []int, l []float64) {}
func (f *fixedStrategy) Select(e int, available []bool, k int) []int {
	sel := f.order[f.calls%len(f.order)]
	f.calls++
	var out []int
	for _, id := range sel {
		if id < len(available) && available[id] {
			out = append(out, id)
		}
	}
	return out
}

// buildClients creates n clients over a small synthetic task with fixed
// profiles.
func buildClients(t testing.TB, n, samples int, seed uint64) []*Client {
	t.Helper()
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 6, Width: 6, Classes: 4, NoiseStd: 0.12, Blobs: 3}
	gen := dataset.NewGenerator(spec, seed)
	rng := stats.NewRNG(stats.DeriveSeed(seed, 5))
	profRNG := stats.NewRNG(stats.DeriveSeed(seed, 6))
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		major := i % 4
		ld := dataset.MajorityNoise(major, 0.75, []int{(major + 1) % 4, (major + 2) % 4, (major + 3) % 4}, dataset.DefaultMajorityFractions)
		full := gen.Generate(ld.Draw(samples, rng), rng)
		train, test := full.Split(0.8, rng)
		clients[i] = &Client{
			ID:      i,
			Data:    dataset.ClientData{Train: train, Test: test, Group: major},
			Profile: simnet.SampleProfile(profRNG),
		}
	}
	return clients
}

func smallConfig(seed uint64) Config {
	return Config{
		Arch:                nn.Arch{Kind: "mlp", In: 36, Hidden: []int{16}, Classes: 4},
		Seed:                seed,
		Local:               LocalTrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		ClientsPerRound:     3,
		MaxRounds:           10,
		EvalEvery:           2,
		PerSampleComputeSec: 0.001,
	}
}

func TestLocalTrainReducesLoss(t *testing.T) {
	clients := buildClients(t, 4, 200, 1)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{16}, Classes: 4}
	model := arch.Build(stats.NewRNG(2))
	global := model.ParamsVector()
	cfg := Config{Seed: 3, Local: LocalTrainConfig{Epochs: 3, BatchSize: 16, LR: 0.1, Momentum: 0.9}}
	res := clients[0].TrainRound(&cfg, NewTrainContext(model), 0, global, nil)
	if res.ClientID != 0 || res.NumSamples != clients[0].NumTrainSamples() {
		t.Fatal("result metadata wrong")
	}
	// Updated params must differ from the global.
	diff := 0.0
	for i := range global {
		diff += math.Abs(res.Params[i] - global[i])
	}
	if diff == 0 {
		t.Fatal("TrainRound did not move parameters")
	}
	// Training from the result should show lower loss than from scratch.
	model.SetParamsVector(res.Params)
	after := model.Loss(clients[0].Data.Train.X, clients[0].Data.Train.Y)
	model.SetParamsVector(global)
	before := model.Loss(clients[0].Data.Train.X, clients[0].Data.Train.Y)
	if after >= before {
		t.Errorf("local training raised loss: %v -> %v", before, after)
	}
	if res.Loss <= 0 {
		t.Errorf("reported loss %v", res.Loss)
	}
}

func TestLocalTrainDeterministic(t *testing.T) {
	clients := buildClients(t, 1, 100, 4)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{8}, Classes: 4}
	model := arch.Build(stats.NewRNG(5))
	global := model.ParamsVector()
	cfg := Config{Seed: 6, Local: LocalTrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0}}
	a := clients[0].TrainRound(&cfg, NewTrainContext(model), 4, global, nil)
	b := clients[0].TrainRound(&cfg, NewTrainContext(model), 4, global, nil)
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			t.Fatal("TrainRound not deterministic under equal seeds")
		}
	}
}

func TestEngineRunProducesHistory(t *testing.T) {
	clients := buildClients(t, 8, 120, 7)
	strat := &fixedStrategy{order: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 0}}}
	eng := NewEngine(smallConfig(8), clients, strat)
	res := eng.Run()
	if strat.inits != 1 {
		t.Errorf("Init called %d times", strat.inits)
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	// EvalEvery=2 over 10 rounds -> 5 history points.
	if len(res.History) != 5 {
		t.Fatalf("history has %d points", len(res.History))
	}
	// Virtual time must be strictly increasing.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Time <= res.History[i-1].Time {
			t.Errorf("virtual time not increasing: %v", res.History)
		}
	}
	if len(res.PerClientAcc) != 8 {
		t.Errorf("per-client accs: %d", len(res.PerClientAcc))
	}
	if res.Clock <= 0 {
		t.Errorf("clock = %v", res.Clock)
	}
	if len(res.FinalParams) == 0 {
		t.Error("missing final params")
	}
}

func TestEngineLearnsOnEasyTask(t *testing.T) {
	clients := buildClients(t, 8, 300, 9)
	cfg := smallConfig(10)
	cfg.MaxRounds = 40
	cfg.EvalEvery = 40
	cfg.ClientsPerRound = 4
	cfg.Local.Epochs = 2
	strat := &fixedStrategy{order: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}}
	res := NewEngine(cfg, clients, strat).Run()
	if acc := res.FinalAccuracy(); acc < 0.7 {
		t.Errorf("final accuracy %v after 40 rounds on easy task", acc)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() *Result {
		clients := buildClients(t, 6, 100, 11)
		strat := &fixedStrategy{order: [][]int{{0, 1}, {2, 3}, {4, 5}}}
		cfg := smallConfig(12)
		cfg.MaxRounds = 6
		return NewEngine(cfg, clients, strat).Run()
	}
	a, b := run(), run()
	if a.Clock != b.Clock {
		t.Errorf("clocks differ: %v vs %v", a.Clock, b.Clock)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history differs at %d: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatal("final params differ across identical runs")
		}
	}
}

func TestEngineTargetAccuracyStopsEarly(t *testing.T) {
	clients := buildClients(t, 8, 300, 13)
	cfg := smallConfig(14)
	cfg.MaxRounds = 100
	cfg.EvalEvery = 1
	cfg.TargetAccuracy = 0.5
	cfg.ClientsPerRound = 4
	strat := &fixedStrategy{order: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}}
	res := NewEngine(cfg, clients, strat).Run()
	if res.Rounds >= 100 {
		t.Error("early stop did not trigger")
	}
	if res.FinalAccuracy() < 0.5 {
		t.Errorf("stopped below target: %v", res.FinalAccuracy())
	}
}

func TestEngineDropoutRespected(t *testing.T) {
	clients := buildClients(t, 6, 80, 15)
	cfg := smallConfig(16)
	cfg.MaxRounds = 4
	cfg.RecordSelections = true
	cfg.Dropout = simnet.PermanentDropout{Dropped: []int{0, 1}}
	strat := &fixedStrategy{order: [][]int{{0, 1, 2}, {3, 4, 5}}}
	res := NewEngine(cfg, clients, strat).Run()
	for r, sel := range res.Selected {
		for _, id := range sel {
			if id == 0 || id == 1 {
				t.Fatalf("round %d selected dropped client %d", r, id)
			}
		}
	}
}

func TestEngineEmptySelectionAdvancesClock(t *testing.T) {
	clients := buildClients(t, 3, 80, 17)
	cfg := smallConfig(18)
	cfg.MaxRounds = 3
	cfg.Dropout = simnet.PermanentDropout{Dropped: []int{0, 1, 2}}
	strat := &fixedStrategy{order: [][]int{{0, 1, 2}}}
	res := NewEngine(cfg, clients, strat).Run()
	if res.Clock != 3 {
		t.Errorf("idle clock = %v, want 3 (one retry second per empty round)", res.Clock)
	}
}

func TestEngineRoundTimeIsMaxOfSelected(t *testing.T) {
	clients := buildClients(t, 4, 100, 19)
	// Pin profiles for exact arithmetic.
	for i, c := range clients {
		c.Profile = simnet.Profile{
			Category:          simnet.Fast,
			ComputeMultiplier: float64(i + 1),
			BandwidthMbps:     100,
			NetLatencySec:     0.05,
		}
	}
	cfg := smallConfig(20)
	cfg.MaxRounds = 1
	cfg.EvalEvery = 1
	strat := &fixedStrategy{order: [][]int{{0, 3}}}
	eng := NewEngine(cfg, clients, strat)
	want := eng.ClientLatency(3) // slowest of the two selected
	if lat0 := eng.ClientLatency(0); lat0 >= want {
		t.Fatalf("test premise broken: %v >= %v", lat0, want)
	}
	res := eng.Run()
	if math.Abs(res.Clock-want) > 1e-9 {
		t.Errorf("round time %v, want slowest participant %v", res.Clock, want)
	}
}

// recordingStrategy is fixedStrategy plus a log of Update calls.
type recordingStrategy struct {
	fixedStrategy
	updSelected [][]int
	updLosses   [][]float64
}

func (r *recordingStrategy) Update(e int, s []int, l []float64) {
	r.updSelected = append(r.updSelected, append([]int(nil), s...))
	r.updLosses = append(r.updLosses, append([]float64(nil), l...))
}

func TestEngineRoundDeadlineCutsStraggler(t *testing.T) {
	clients := buildClients(t, 4, 100, 19)
	for i, c := range clients {
		c.Profile = simnet.Profile{
			Category:          simnet.Fast,
			ComputeMultiplier: float64(i + 1),
			BandwidthMbps:     100,
			NetLatencySec:     0.05,
		}
	}
	cfg := smallConfig(20)
	cfg.MaxRounds = 1
	cfg.EvalEvery = 1
	strat := &recordingStrategy{fixedStrategy: fixedStrategy{order: [][]int{{0, 3}}}}
	// Pick a deadline between the two selected clients' latencies, so
	// client 3 is cut and only client 0 reports.
	eng0 := NewEngine(cfg, clients, &fixedStrategy{order: [][]int{{0}}})
	lat0, lat3 := eng0.ClientLatency(0), eng0.ClientLatency(3)
	if lat0 >= lat3 {
		t.Fatalf("test premise broken: %v >= %v", lat0, lat3)
	}
	cfg.RoundDeadline = (lat0 + lat3) / 2
	eng := NewEngine(cfg, clients, strat)
	res := eng.Run()
	// The round waits out the deadline because a straggler was cut.
	if math.Abs(res.Clock-cfg.RoundDeadline) > 1e-9 {
		t.Errorf("clock = %v, want the deadline %v", res.Clock, cfg.RoundDeadline)
	}
	// Update sees the reporter only.
	if len(strat.updSelected) != 1 || len(strat.updSelected[0]) != 1 || strat.updSelected[0][0] != 0 {
		t.Fatalf("Update selected = %v, want [[0]]", strat.updSelected)
	}
	if len(strat.updLosses[0]) != 1 {
		t.Fatalf("Update losses = %v, want reporter's loss only", strat.updLosses)
	}
	// The aggregated model is exactly the reporter's update: re-train
	// client 0 alone from the same initial model and compare.
	cfg2 := smallConfig(20)
	cfg2.MaxRounds = 1
	cfg2.EvalEvery = 1
	solo := NewEngine(cfg2, buildClients(t, 4, 100, 19), &fixedStrategy{order: [][]int{{0}}}).Run()
	if len(solo.FinalParams) != len(res.FinalParams) {
		t.Fatal("param dimension mismatch")
	}
	for i := range res.FinalParams {
		if res.FinalParams[i] != solo.FinalParams[i] {
			t.Fatalf("params[%d] = %v, want the lone reporter's update %v", i, res.FinalParams[i], solo.FinalParams[i])
		}
	}
}

func TestEngineValidatesStrategyOutput(t *testing.T) {
	clients := buildClients(t, 3, 80, 21)
	for name, order := range map[string][][]int{
		"duplicate":  {{0, 0}},
		"overbudget": {{0, 1, 2}},
	} {
		cfg := smallConfig(22)
		cfg.ClientsPerRound = 2
		cfg.MaxRounds = 1
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s selection did not panic", name)
				}
			}()
			NewEngine(cfg, clients, &fixedStrategy{order: order}).Run()
		}()
	}
}

func TestEngineRejectsBadRoster(t *testing.T) {
	clients := buildClients(t, 3, 80, 23)
	clients[1].ID = 5
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dense IDs")
		}
	}()
	NewEngine(smallConfig(24), clients, &fixedStrategy{order: [][]int{{0}}})
}

func TestFilterAvailable(t *testing.T) {
	got := FilterAvailable([]bool{true, false, true, true})
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("FilterAvailable = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilterAvailable = %v", got)
		}
	}
}

func TestEvaluatePerClientOrdering(t *testing.T) {
	clients := buildClients(t, 5, 150, 25)
	cfg := smallConfig(26)
	strat := &fixedStrategy{order: [][]int{{0, 1, 2}}}
	eng := NewEngine(cfg, clients, strat)
	mean, _, per := eng.Evaluate()
	if len(per) != 5 {
		t.Fatalf("per-client len %d", len(per))
	}
	if math.Abs(mean-stats.Mean(per)) > 1e-12 {
		t.Errorf("mean %v != mean(per-client) %v", mean, stats.Mean(per))
	}
}

func TestLocalTrainProximalBoundsDrift(t *testing.T) {
	// FedProx: with a large proximal coefficient, the locally trained
	// parameters stay much closer to the global reference.
	clients := buildClients(t, 1, 200, 27)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{16}, Classes: 4}
	model := arch.Build(stats.NewRNG(28))
	global := model.ParamsVector()

	drift := func(mu float64) float64 {
		cfg := Config{Seed: 29, Local: LocalTrainConfig{Epochs: 5, BatchSize: 16, LR: 0.1, ProxMu: mu}}
		res := clients[0].TrainRound(&cfg, NewTrainContext(model), 0, global, nil)
		d := 0.0
		for i := range global {
			d += (res.Params[i] - global[i]) * (res.Params[i] - global[i])
		}
		return math.Sqrt(d)
	}
	plain := drift(0)
	prox := drift(1.0)
	if prox >= plain {
		t.Errorf("proximal drift %v not below plain drift %v", prox, plain)
	}
	if prox <= 0 {
		t.Error("proximal training did not move at all")
	}
}
