// Command haccs-sim runs a single federated training simulation with a
// chosen client-selection strategy and prints the accuracy-vs-virtual-
// time curve. It is the quickstart binary: one run, one strategy, one
// curve.
//
// Example:
//
//	haccs-sim -dataset cifar -strategy haccs-py -clients 30 -k 6 -rounds 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/experiments"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/introspect"
	"haccs/internal/metrics"
	"haccs/internal/nn"
	roundspkg "haccs/internal/rounds"
	"haccs/internal/selection"
	"haccs/internal/simnet"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

func main() {
	var (
		family   = flag.String("dataset", "cifar", "synthetic dataset family: mnist | femnist | cifar")
		strategy = flag.String("strategy", "haccs-py", "selection strategy: random | tifl | oort | haccs-py | haccs-pxy")
		clients  = flag.Int("clients", 30, "number of clients")
		classes  = flag.Int("classes", 10, "number of class labels")
		k        = flag.Int("k", 6, "clients selected per round")
		rounds   = flag.Int("rounds", 100, "training rounds")
		rho      = flag.Float64("rho", 0.75, "HACCS latency/loss trade-off in [0,1]")
		eps      = flag.Float64("eps", 0, "differential-privacy epsilon for summaries (0 = off)")
		target   = flag.Float64("target", 0.5, "target accuracy for the TTA report")
		seed     = flag.Uint64("seed", 1, "root random seed")
		size     = flag.Int("size", 8, "image side length (8 for quick runs, 16+ for larger)")
		dropout  = flag.Float64("dropout", 0, "per-epoch transient client dropout rate")
		deadline = flag.Float64("deadline", 0, "per-round straggler deadline in virtual seconds (0 = wait for every selected client; sync mode only)")
		mode     = flag.String("mode", "sync", "round runtime: sync (barrier rounds) | async (FedBuff-style buffered aggregation)")
		bufferK  = flag.Int("buffer-k", 0, "async aggregation trigger: flush the buffer at K updates (0 = half of -k)")
		maxStale = flag.Int("max-staleness", 0, "async staleness bound: drop updates more than this many model versions behind (0 = unlimited)")
		lr       = flag.Float64("lr", 0.05, "local SGD learning rate")
		epochs   = flag.Int("epochs", 2, "local epochs per round")
		prox     = flag.Float64("prox", 0, "FedProx proximal coefficient mu (0 = plain FedAvg)")
		policy   = flag.String("policy", "fastest", "HACCS intra-cluster device policy: fastest | weighted")
		backend  = flag.String("cluster-backend", "dense", "HACCS clustering backend: dense (exact N×N Hellinger matrix) | sketch (representative index, scales to 100k+ clients)")
		csvPath  = flag.String("csv", "", "write the accuracy curve as CSV to this path")
		jsonPath = flag.String("json", "", "write the run summary as JSON to this path")

		ckptDir    = flag.String("checkpoint-dir", "", "persist run-state snapshots into this directory (crash recovery; see -resume)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "snapshot cadence in rounds when -checkpoint-dir is set")
		ckptRetain = flag.Int("checkpoint-retain", 3, "how many snapshots to keep on disk")
		resume     = flag.Bool("resume", false, "resume from the newest good snapshot in -checkpoint-dir and continue to -rounds")

		jsonlPath   = flag.String("telemetry-jsonl", "", "stream the round trace as JSONL to this path (replay it with haccs-trace)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/trace, /debug/spans, /debug/selection and /debug/fleet on this address during the run")
		fleetCheck  = flag.Bool("fleet-check", false, "after the run, self-scrape /debug/fleet and fail unless the fleet registry recorded straggler cuts and a sane fairness index (requires -metrics-addr; smoke-test hook)")
		asyncCheck  = flag.Bool("async-check", false, "after the run, self-scrape /metrics and /debug/selection and fail unless the async staleness histogram and buffer state were published (requires -mode async and -metrics-addr; smoke-test hook)")
		pprof       = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the run finishes")
	)
	flag.Parse()

	if err := validateFlags(simFlags{
		Rounds: *rounds, Clients: *clients, Classes: *classes, K: *k, Size: *size, Epochs: *epochs,
		Dropout: *dropout, Deadline: *deadline, Rho: *rho, Policy: *policy, Backend: *backend,
		Mode: *mode, BufferK: *bufferK, MaxStaleness: *maxStale, AsyncCheck: *asyncCheck,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, CheckpointRetain: *ckptRetain, Resume: *resume,
		FleetCheck: *fleetCheck, MetricsAddr: *metricsAddr,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "haccs-sim:", err)
		os.Exit(2)
	}
	runMode, _ := roundspkg.ParseMode(*mode)
	spec, err := specFor(*family, *classes, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan := dataset.MajorityNoisePlan(*clients, *classes, 100, 240, stats.NewRNG(stats.DeriveSeed(*seed, 14)))
	w := experiments.BuildWorkload(spec, plan, modelFor(spec), *seed)

	// validateFlags pinned *policy to fastest|weighted already.
	intra := core.PickFastest
	if *policy == "weighted" {
		intra = core.PickWeighted
	}
	// ...and *backend to dense|sketch.
	clusterBackend, _ := core.ParseClusterBackend(*backend)
	// Telemetry: registry + trace sinks are only allocated when a flag
	// asks for them; engines treat nil as "off".
	var (
		reg    *telemetry.Registry
		tracer telemetry.Tracer
		jsonl  *telemetry.JSONLSink
		ring   *telemetry.RingSink
	)
	if *jsonlPath != "" || *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *jsonlPath != "" {
		jsonl, err = telemetry.NewJSONLFile(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metricsAddr != "" {
		ring = telemetry.NewRingSink(4096)
	}
	// Append only live sinks: a typed-nil *JSONLSink inside a Tracer
	// interface would defeat Combine's nil filtering.
	var sinks []telemetry.Tracer
	if jsonl != nil {
		sinks = append(sinks, jsonl)
	}
	if ring != nil {
		sinks = append(sinks, ring)
	}
	tracer = telemetry.Combine(sinks...)
	// Spans ride the same sinks: nil when telemetry is entirely off, so
	// the instrumented round loop stays zero-cost by default.
	spans := telemetry.NewSpanTracer(tracer, reg)
	if *pprof && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "haccs-sim: -pprof requires -metrics-addr")
		os.Exit(2)
	}

	strat, err := buildStrategy(*strategy, w.TrainSets, *eps, *rho, intra, clusterBackend, *seed, tracer, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Fleet health registry: on whenever any telemetry surface is on, so
	// the same run that traces or serves metrics also accumulates the
	// longitudinal per-client view. HACCS strategies additionally feed
	// the per-cluster share/target/drift gauges.
	var fleetReg *fleet.Registry
	if reg != nil {
		var src fleet.ClusterSource
		if cs, ok := strat.(fleet.ClusterSource); ok {
			src = cs
		}
		fleetReg = fleet.NewRegistry(w.NumClients(), fleet.Options{Tracer: tracer, Metrics: reg, Source: src})
	}

	// In async mode /debug/selection additionally carries the driver's
	// buffer state; the engine is built after the HTTP server comes up,
	// so the inspector binds late (serving the zero state until then).
	var asyncInsp *lateAsyncInspector
	if runMode == roundspkg.ModeAsync {
		asyncInsp = &lateAsyncInspector{}
	}
	var srv *telemetry.HTTPServer
	if *metricsAddr != "" {
		opts := []telemetry.ServeOption{}
		endpoints := "/metrics, /debug/trace and /debug/spans"
		selInsp, hasSel := strat.(introspect.SelectionInspector)
		if hasSel || asyncInsp != nil {
			var handler = introspect.Handler(selInsp)
			if asyncInsp != nil {
				handler = introspect.HandlerWithAsync(selInsp, asyncInsp)
			}
			opts = append(opts, telemetry.WithEndpoint("/debug/selection", handler))
			endpoints += ", /debug/selection"
		}
		opts = append(opts, telemetry.WithEndpoint("/debug/fleet", fleet.Handler(fleetReg)))
		endpoints += ", /debug/fleet"
		if *pprof {
			opts = append(opts, telemetry.WithPprof())
			endpoints += ", /debug/pprof"
		}
		srv, err = telemetry.Serve(*metricsAddr, reg, ring, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving %s on http://%s\n", endpoints, srv.Addr())
		if *metricsHold > 0 {
			defer func() {
				fmt.Printf("telemetry: holding the endpoint for %s\n", *metricsHold)
				time.Sleep(*metricsHold)
			}()
		}
	}
	if jsonl != nil {
		defer func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Printf("trace written to %s\n", *jsonlPath)
			}
		}()
	}

	cfg := fl.Config{
		Arch:                w.Arch,
		Seed:                stats.DeriveSeed(*seed, 12),
		Local:               fl.LocalTrainConfig{Epochs: *epochs, BatchSize: 32, LR: *lr, ProxMu: *prox},
		ClientsPerRound:     *k,
		MaxRounds:           *rounds,
		EvalEvery:           5,
		PerSampleComputeSec: 0.01,
		RoundDeadline:       *deadline,
		Mode:                runMode,
		Async:               roundspkg.AsyncConfig{BufferK: *bufferK, MaxStaleness: *maxStale},
		Tracer:              tracer,
		Spans:               spans,
		Metrics:             reg,
		Fleet:               fleetReg,
	}
	if *dropout > 0 {
		cfg.Dropout = simnet.TransientDropout{
			Rate: *dropout,
			Seed: stats.DeriveSeed(*seed, 13),
		}
	}

	var store *checkpoint.Store
	if *ckptDir != "" {
		store, err = checkpoint.NewStore(*ckptDir, *ckptRetain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "haccs-sim:", err)
			os.Exit(1)
		}
		cfg.Checkpoint = store
		cfg.CheckpointEvery = *ckptEvery
	}

	fmt.Printf("haccs-sim: %s on %s, %d clients, k=%d, %d rounds, seed=%d\n",
		strat.Name(), spec.Name, *clients, *k, *rounds, *seed)
	if *deadline > 0 {
		fmt.Printf("haccs-sim: straggler deadline %.1f virtual seconds (partial aggregation)\n", *deadline)
	}
	if runMode == roundspkg.ModeAsync {
		fmt.Printf("haccs-sim: async mode (buffer-k %d, max-staleness %d; 0 = auto/unlimited)\n", *bufferK, *maxStale)
	}
	eng := fl.NewEngine(cfg, w.Clients, strat)
	if asyncInsp != nil {
		if ai, ok := eng.Runner().(introspect.AsyncInspector); ok {
			asyncInsp.bind(ai)
		}
	}
	if *resume {
		snap, err := store.LoadLatest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "haccs-sim:", err)
			os.Exit(1)
		}
		if err := eng.Restore(snap); err != nil {
			fmt.Fprintln(os.Stderr, "haccs-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("haccs-sim: resumed from snapshot after round %d in %s\n", snap.Round, *ckptDir)
	}
	res := eng.Run()

	if *fleetCheck {
		if err := checkFleetEndpoint("http://" + srv.Addr() + "/debug/fleet"); err != nil {
			fmt.Fprintln(os.Stderr, "haccs-sim: fleet-check:", err)
			os.Exit(1)
		}
		fmt.Println("fleet-check: /debug/fleet healthy (straggler cuts recorded, fairness in (0,1])")
	}
	if *asyncCheck {
		if err := checkAsyncEndpoints("http://" + srv.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "haccs-sim: async-check:", err)
			os.Exit(1)
		}
		fmt.Println("async-check: staleness histogram on /metrics and buffer state on /debug/selection")
	}

	tab := metrics.NewTable("round", "virtual-time", "accuracy", "loss")
	for _, p := range res.History {
		tab.AddRow(p.Round, p.Time, p.Acc, p.Loss)
	}
	fmt.Print(tab.String())
	if tta, ok := metrics.TTA(res.History, *target); ok {
		fmt.Printf("time to %.0f%% accuracy: %.1f virtual seconds\n", *target*100, tta)
	} else {
		fmt.Printf("target accuracy %.0f%% not reached (final %.3f)\n", *target*100, res.FinalAccuracy())
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error {
			return metrics.WriteHistoryCSV(w, res.History)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("curve written to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(w io.Writer) error {
			return metrics.Summarize(res, *target).WriteJSON(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("summary written to %s\n", *jsonPath)
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("haccs-sim: %w", err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("haccs-sim: write %s: %w", path, err)
	}
	return f.Close()
}

func specFor(family string, classes, size int) (dataset.Spec, error) {
	var spec dataset.Spec
	switch family {
	case "mnist":
		spec = dataset.SyntheticMNIST()
		spec.Classes = classes
	case "femnist":
		spec = dataset.SyntheticFEMNIST(classes)
	case "cifar":
		spec = dataset.SyntheticCIFAR()
		spec.Classes = classes
	default:
		return spec, fmt.Errorf("haccs-sim: unknown dataset %q", family)
	}
	return spec.Compact(size, size), nil
}

func modelFor(spec dataset.Spec) nn.Arch {
	return nn.Arch{Kind: "mlp", In: spec.FeatureDim(), Hidden: []int{32}, Classes: spec.Classes}
}

func buildStrategy(name string, trainSets []*dataset.Dataset, eps, rho float64, intra core.IntraClusterPolicy, backend core.ClusterBackend, seed uint64, tracer telemetry.Tracer, reg *telemetry.Registry) (fl.Strategy, error) {
	noiseRNG := stats.NewRNG(stats.DeriveSeed(seed, 15))
	switch name {
	case "random":
		return selection.NewRandom(), nil
	case "tifl":
		return selection.NewTiFL(5), nil
	case "oort":
		return selection.NewOort(), nil
	case "haccs-py":
		sums := core.BuildSummaries(trainSets, core.PY, 0, eps, noiseRNG)
		return core.NewScheduler(core.Config{Kind: core.PY, Rho: rho, IntraCluster: intra, Backend: backend, Tracer: tracer, Metrics: reg}, sums), nil
	case "haccs-pxy":
		sums := core.BuildSummaries(trainSets, core.PXY, 0, eps, noiseRNG)
		return core.NewScheduler(core.Config{Kind: core.PXY, Rho: rho, IntraCluster: intra, Backend: backend, Tracer: tracer, Metrics: reg}, sums), nil
	default:
		return nil, fmt.Errorf("haccs-sim: unknown strategy %q", name)
	}
}
