package fl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"haccs/internal/dataset"
	"haccs/internal/nn"
	"haccs/internal/simnet"
	"haccs/internal/stats"
)

// TestLocalTrainCtxMatchesLocalTrain pins the reusable-context training
// path to the one-shot path: same client, parameters, config and RNG
// stream must yield bit-identical updated parameters and loss, with the
// context's scratch arena and persistent optimizer in play.
func TestLocalTrainCtxMatchesLocalTrain(t *testing.T) {
	clients := buildClients(t, 2, 60, 11)
	c := clients[0]
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{16}, Classes: 4}
	template := arch.Build(stats.NewRNG(1))
	global := template.ParamsVector()
	cfg := LocalTrainConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9}

	want := c.LocalTrain(template.Clone(), global, cfg, stats.NewRNG(42))

	tc := NewTrainContext(template)
	dst := make([]float64, len(global))
	// Two runs through the same context: the second exercises warm
	// arenas and a reset optimizer and must still match exactly.
	for run := 0; run < 2; run++ {
		got := c.LocalTrainCtx(tc, global, dst, cfg, stats.NewRNG(42))
		if got.Loss != want.Loss {
			t.Fatalf("run %d: loss %v != %v", run, got.Loss, want.Loss)
		}
		if got.NumSamples != want.NumSamples || got.ClientID != want.ClientID {
			t.Fatalf("run %d: metadata mismatch: %+v vs %+v", run, got, want)
		}
		for i := range want.Params {
			if got.Params[i] != want.Params[i] {
				t.Fatalf("run %d: param %d = %v, want %v (not bit-identical)", run, i, got.Params[i], want.Params[i])
			}
		}
	}

	// The proximal path must agree across the two entry points too.
	proxCfg := cfg
	proxCfg.ProxMu = 0.01
	wantProx := c.LocalTrain(template.Clone(), global, proxCfg, stats.NewRNG(43))
	gotProx := c.LocalTrainCtx(tc, global, dst, proxCfg, stats.NewRNG(43))
	if gotProx.Loss != wantProx.Loss {
		t.Fatalf("prox: loss %v != %v", gotProx.Loss, wantProx.Loss)
	}
	for i := range wantProx.Params {
		if gotProx.Params[i] != wantProx.Params[i] {
			t.Fatalf("prox: param %d differs", i)
		}
	}
}

// TestLocalTrainCtxConcurrent runs many local-training jobs across
// goroutine-owned contexts (the engine's concurrency pattern) and
// checks under -race that contexts do not share state and results stay
// bit-identical to serial execution.
func TestLocalTrainCtxConcurrent(t *testing.T) {
	clients := buildClients(t, 8, 40, 17)
	arch := nn.Arch{Kind: "mlp", In: 36, Hidden: []int{12}, Classes: 4}
	template := arch.Build(stats.NewRNG(2))
	global := template.ParamsVector()
	cfg := LocalTrainConfig{Epochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9}

	serial := make([]TrainResult, len(clients))
	sctx := NewTrainContext(template)
	for i, c := range clients {
		serial[i] = c.LocalTrainCtx(sctx, global, nil, cfg, stats.NewRNG(uint64(100+i)))
	}

	const workers = 4
	parallel := make([]TrainResult, len(clients))
	var wg sync.WaitGroup
	wg.Add(workers)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			tc := NewTrainContext(template)
			for i := range jobs {
				parallel[i] = clients[i].LocalTrainCtx(tc, global, nil, cfg, stats.NewRNG(uint64(100+i)))
			}
		}()
	}
	for i := range clients {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i := range clients {
		if serial[i].Loss != parallel[i].Loss {
			t.Fatalf("client %d: loss %v != %v", i, parallel[i].Loss, serial[i].Loss)
		}
		for j := range serial[i].Params {
			if serial[i].Params[j] != parallel[i].Params[j] {
				t.Fatalf("client %d: param %d differs between serial and parallel", i, j)
			}
		}
	}
}

// buildConvClients creates clients over a 16x16 single-channel task —
// large enough to survive LeNet's two conv+pool stages.
func buildConvClients(t testing.TB, n, samples int, seed uint64) []*Client {
	t.Helper()
	spec := dataset.Spec{Name: "conv-t", Channels: 1, Height: 16, Width: 16, Classes: 4, NoiseStd: 0.12, Blobs: 3}
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

// TestEngineBatchedConvMatchesReference is the end-to-end regression
// for the batched convolution rewrite: two engines that differ only in
// conv implementation ("lenet" batched vs "lenet-ref" per-image) must
// produce bit-identical global parameter vectors after three federated
// rounds — local training, aggregation and selection included. The
// "lenet" leg runs at every (GOMAXPROCS, Parallelism) pair of
// experiments.TestDriverMatchesSeedTrajectory against one reference run.
func TestEngineBatchedConvMatchesReference(t *testing.T) {
	run := func(kind string, parallelism int) *Result {
		clients := buildConvClients(t, 6, 30, 23)
		cfg := Config{
			Arch:                nn.Arch{Kind: kind, Channels: 1, Height: 16, Width: 16, Classes: 4, ConvFilters: [2]int{2, 3}},
			Seed:                7,
			Local:               LocalTrainConfig{Epochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9},
			ClientsPerRound:     3,
			MaxRounds:           3,
			PerSampleComputeSec: 0.001,
			Parallelism:         parallelism,
		}
		strategy := &fixedStrategy{order: [][]int{{0, 1, 2}, {3, 4, 5}, {1, 3, 5}}}
		return NewEngine(cfg, clients, strategy).Run()
	}
	ref := run("lenet-ref", 2)
	for _, cc := range []struct{ procs, parallelism int }{{1, 1}, {4, 1}, {4, 2}, {4, 6}} {
		t.Run(fmt.Sprintf("procs%d_par%d", cc.procs, cc.parallelism), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cc.procs))
			batched := run("lenet", cc.parallelism)
			if len(batched.FinalParams) != len(ref.FinalParams) {
				t.Fatalf("parameter count %d != %d", len(batched.FinalParams), len(ref.FinalParams))
			}
			for i := range ref.FinalParams {
				if batched.FinalParams[i] != ref.FinalParams[i] {
					t.Fatalf("global param %d = %v (batched) vs %v (reference); not bit-identical",
						i, batched.FinalParams[i], ref.FinalParams[i])
				}
			}
			if batched.FinalAccuracy() != ref.FinalAccuracy() {
				t.Fatalf("final accuracy %v != %v", batched.FinalAccuracy(), ref.FinalAccuracy())
			}
		})
	}
}
