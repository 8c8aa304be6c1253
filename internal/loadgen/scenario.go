package loadgen

import (
	"fmt"
	"path/filepath"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// Leg is one scenario in the matrix.
type Leg struct {
	// Name labels the leg in reports ("sync", "async", "storm",
	// "crash").
	Name string
	// Mode selects the round runtime (sync barrier or FedBuff-style
	// async).
	Mode rounds.Mode
	// Async tunes the async driver when Mode is rounds.ModeAsync.
	Async rounds.AsyncConfig
	// Rounds to drive.
	Rounds int
	// K is the per-round selection budget.
	K int
	// Deadline is the sync straggler deadline in virtual seconds
	// (must be 0 for async legs; the heavy-tail latency model makes it
	// bite).
	Deadline float64
	// StormFraction, when positive, kills that fraction of live
	// connections halfway through the leg and requires the fleet to
	// reconnect.
	StormFraction float64
	// Crash, when true, aborts the coordinator halfway through the
	// leg (no Shutdown envelopes — a process-death simulation) and
	// resumes from the latest checkpoint on a fresh server, with the
	// fleet redialing under load.
	Crash bool
	// Shards, when > 1, runs the leg through the hierarchical topology
	// instead of a flat coordinator: clients partition across Shards
	// shard coordinators by the consistent-hash ring, shard agents
	// uplink to a root aggregator, and the leg's storm hits one whole
	// shard's slice (a third of the way in) while Crash kills the root
	// (two thirds in) rather than a shard.
	Shards int
}

// MatrixConfig is the shared environment for every leg.
type MatrixConfig struct {
	// Fleet configures the synthetic client fleet (fresh per leg, so
	// legs are independent).
	Fleet FleetConfig
	// ScrapeEvery is the round cadence of periodic /metrics scrapes
	// (default 5; the final scrape always happens).
	ScrapeEvery int
	// ParamDim is the global parameter vector length (default 256).
	ParamDim int
	// CheckpointDir backs crash legs' checkpoint stores (one subdir
	// per leg). Required when any leg has Crash set.
	CheckpointDir string
	// RuntimeSample is the RuntimeCollector interval (default 1s; the
	// harness also samples synchronously before every scrape).
	RuntimeSample time.Duration
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if c.ScrapeEvery <= 0 {
		c.ScrapeEvery = 5
	}
	if c.ParamDim <= 0 {
		c.ParamDim = 256
	}
	return c
}

// LegResult is everything the report renders for one leg. Every field
// except the wall clock and pass/fail bookkeeping is computed from
// /metrics and /debug/fleet scrapes — the harness has no private
// channel into the coordinator.
type LegResult struct {
	Name    string
	Clients int
	Rounds  int
	WallSec float64

	// Round latency percentiles (seconds) from the coordinator's own
	// haccs_net_round_seconds derived-quantile series.
	P50, P99 float64
	// Throughput over the leg from counter deltas.
	RoundsPerSec   float64
	BufferedPerSec float64 // async only; 0 elsewhere

	// Churn and failure counts (deltas over the leg).
	StragglerCuts float64
	Failed        float64
	Reconnects    float64
	SessionsMin   float64
	SessionsFinal float64

	// Runtime resource envelope (maxima over all scrapes).
	HeapMaxBytes  float64
	GoroutinesMax float64
	GCPauseP99    float64
	SchedP99      float64

	// Fleet view from the final /debug/fleet scrape.
	FleetRounds int
	Fairness    float64

	// Storm leg: connections killed and seconds until the reconnect
	// counter showed every victim re-admitted (-1 = never recovered).
	StormKilled      int
	StormRecoverySec float64
	// Crash leg: the round index the restored coordinator resumed
	// from (-1 when the leg did not crash).
	CrashResumedFrom int
	// Sharded leg: shard count and the root-observed shard session
	// churn (0 for flat legs).
	Shards          int
	ShardReconnects float64
	RootAggP99      float64

	ScrapeErrors []string
	Notes        []string
	Pass         bool
}

// RunMatrix drives every leg in sequence, each against a fresh
// coordinator and fleet, and returns one result per leg. A leg that
// fails to even start aborts the matrix with an error; a leg that runs
// but misses its bar comes back with Pass=false for the report (and
// the caller's exit code) to surface.
func RunMatrix(cfg MatrixConfig, legs []Leg) ([]LegResult, error) {
	results := make([]LegResult, 0, len(legs))
	for _, leg := range legs {
		res, err := RunLeg(cfg, leg)
		if err != nil {
			return results, fmt.Errorf("loadgen: leg %s: %w", leg.Name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// RunLeg runs one scenario end to end: boot a coordinator with
// telemetry and fleet endpoints, launch the fleet, drive the rounds
// (injecting the leg's storm or crash), scrape throughout, and fold
// the scrapes into a LegResult.
func RunLeg(cfg MatrixConfig, leg Leg) (LegResult, error) {
	cfg = cfg.withDefaults()
	if leg.Shards > 1 {
		return runShardedLeg(cfg, leg)
	}
	res := LegResult{Name: leg.Name, Clients: cfg.Fleet.N, Rounds: leg.Rounds, CrashResumedFrom: -1, StormRecoverySec: -1}
	if leg.Mode == rounds.ModeAsync && leg.Deadline != 0 {
		return res, fmt.Errorf("async leg cannot carry a deadline")
	}

	reg := telemetry.NewRegistry()
	rc := telemetry.NewRuntimeCollector(reg, cfg.RuntimeSample)
	rc.Start()
	defer rc.Stop()
	fleetReg := fleet.NewRegistry(cfg.Fleet.N, fleet.Options{Metrics: reg})

	srv, httpAddr, err := bootServer(reg, fleetReg)
	if err != nil {
		return res, err
	}
	defer func() { srv.Close() }()

	fl, err := StartFleet(cfg.Fleet, srv.Addr())
	if err != nil {
		return res, err
	}
	defer fl.Stop()
	if _, err := srv.AcceptClients(cfg.Fleet.N); err != nil {
		return res, fmt.Errorf("accept: %w", err)
	}
	srv.ServeReconnects()

	var store *checkpoint.Store
	if leg.Crash {
		if cfg.CheckpointDir == "" {
			return res, fmt.Errorf("crash leg needs MatrixConfig.CheckpointDir")
		}
		store, err = checkpoint.NewStore(filepath.Join(cfg.CheckpointDir, leg.Name), 2)
		if err != nil {
			return res, err
		}
	}
	ccfg := flnet.CoordinatorConfig{
		ClientsPerRound: leg.K,
		Deadline:        leg.Deadline,
		Mode:            leg.Mode,
		Async:           leg.Async,
		Metrics:         reg,
		Fleet:           fleetReg,
		Checkpoint:      store,
		CheckpointEvery: 1,
	}
	strategySeed := stats.DeriveSeed(cfg.Fleet.Seed, 0x5e1ec7)
	coord, err := flnet.NewCoordinator(srv, ccfg, NewUniformStrategy(strategySeed), make([]float64, cfg.ParamDim))
	if err != nil {
		return res, err
	}

	scraper := NewScraper(httpAddr)
	var env envelope
	scrape := func() *scrapePoint {
		rc.SampleOnce()
		e, err := scraper.Metrics()
		if err != nil {
			res.ScrapeErrors = append(res.ScrapeErrors, err.Error())
			return nil
		}
		p := scrapePoint{at: time.Now(), e: e}
		env.add(p)
		return &p
	}

	base := scrape()
	if base == nil {
		return res, fmt.Errorf("baseline scrape failed: %s", res.ScrapeErrors[len(res.ScrapeErrors)-1])
	}

	stormAt, crashAt := -1, -1
	if leg.StormFraction > 0 {
		stormAt = leg.Rounds / 2
	}
	if leg.Crash {
		crashAt = leg.Rounds / 2
	}
	var stormStart time.Time
	var reconnectsAtStorm float64

	start := time.Now()
	for r := 0; r < leg.Rounds; r++ {
		if r == stormAt {
			reconnectsAtStorm, _ = env.points[len(env.points)-1].e.Value("haccs_net_reconnects_total")
			res.StormKilled = fl.Storm(int(leg.StormFraction * float64(cfg.Fleet.N)))
			stormStart = time.Now()
		}
		if r == crashAt {
			coord, srv, scraper, err = crashAndResume(cfg, ccfg, strategySeed, srv, reg, fleetReg, fl, store)
			if err != nil {
				return res, fmt.Errorf("crash+resume at round %d: %w", r, err)
			}
			res.CrashResumedFrom = coord.NextRound()
			if res.CrashResumedFrom != r {
				res.Notes = append(res.Notes, fmt.Sprintf("resumed from round %d, expected %d", res.CrashResumedFrom, r))
			}
		}
		coord.RunRound(r)
		// Scrape on cadence; during storm recovery scrape every round
		// so the recovery time is tight.
		if r%cfg.ScrapeEvery == 0 || (res.StormKilled > 0 && res.StormRecoverySec < 0) {
			if p := scrape(); p != nil && res.StormKilled > 0 && res.StormRecoverySec < 0 {
				if rec := p.value("haccs_net_reconnects_total") - reconnectsAtStorm; rec >= float64(res.StormKilled) {
					res.StormRecoverySec = p.at.Sub(stormStart).Seconds()
				}
			}
		}
	}
	res.WallSec = time.Since(start).Seconds()

	final := scrape()
	if final == nil {
		return res, fmt.Errorf("final scrape failed: %s", res.ScrapeErrors[len(res.ScrapeErrors)-1])
	}
	if st, err := scraper.Fleet(); err != nil {
		res.ScrapeErrors = append(res.ScrapeErrors, err.Error())
	} else {
		res.FleetRounds = st.Rounds
		res.Fairness = st.Fairness
	}

	summarize(&res, *base, *final, &env)
	res.Pass = len(res.ScrapeErrors) == 0 &&
		res.RoundsPerSec > 0 &&
		(!leg.Crash || res.CrashResumedFrom >= 0) &&
		(res.StormKilled == 0 || res.StormRecoverySec >= 0)
	return res, nil
}

// bootServer builds a coordinator server with its observability
// endpoint (/metrics plus /debug/fleet) on an ephemeral port.
func bootServer(reg *telemetry.Registry, fleetReg *fleet.Registry) (*flnet.Server, string, error) {
	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	httpAddr, err := srv.EnableTelemetry(reg, nil, nil, "127.0.0.1:0",
		telemetry.WithEndpoint("/debug/fleet", fleet.Handler(fleetReg)))
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, httpAddr, nil
}

// crashAndResume is the PR-5 restart recipe under load: abort the
// server (no farewells — clients see a dead coordinator), bring up a
// fresh one, point the fleet at it, wait for every client to
// re-register, rebuild the strategy and coordinator, and restore the
// latest snapshot. The telemetry and fleet registries carry across the
// crash (fleet state is additionally a checkpoint component, restored
// bit-identically).
func crashAndResume(cfg MatrixConfig, ccfg flnet.CoordinatorConfig, strategySeed uint64, old *flnet.Server, reg *telemetry.Registry, fleetReg *fleet.Registry, fl *Fleet, store *checkpoint.Store) (*flnet.Coordinator, *flnet.Server, *Scraper, error) {
	if err := old.Abort(); err != nil {
		return nil, nil, nil, fmt.Errorf("abort: %w", err)
	}
	srv, httpAddr, err := bootServer(reg, fleetReg)
	if err != nil {
		return nil, nil, nil, err
	}
	fl.SetTarget(srv.Addr())
	if _, err := srv.AcceptClients(cfg.Fleet.N); err != nil {
		srv.Close()
		return nil, nil, nil, fmt.Errorf("re-accept: %w", err)
	}
	srv.ServeReconnects()
	coord, err := flnet.NewCoordinator(srv, ccfg, NewUniformStrategy(strategySeed), make([]float64, cfg.ParamDim))
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	snap, err := store.LoadLatest()
	if err != nil {
		srv.Close()
		return nil, nil, nil, fmt.Errorf("load snapshot: %w", err)
	}
	if err := coord.Restore(snap); err != nil {
		srv.Close()
		return nil, nil, nil, fmt.Errorf("restore: %w", err)
	}
	return coord, srv, NewScraper(httpAddr), nil
}

// summarize folds the scrape series into the result's headline
// numbers. All deltas are final-minus-baseline so per-leg throughput
// is unaffected by where counters started.
func summarize(res *LegResult, base, final scrapePoint, env *envelope) {
	res.P50 = final.value("haccs_net_round_seconds", [2]string{"quantile", "0.5"})
	res.P99 = final.value("haccs_net_round_seconds", [2]string{"quantile", "0.99"})
	wall := final.at.Sub(base.at).Seconds()
	if wall > 0 {
		res.RoundsPerSec = (final.value("haccs_net_rounds_total") - base.value("haccs_net_rounds_total")) / wall
		res.BufferedPerSec = (final.value("haccs_async_updates_buffered_total") - base.value("haccs_async_updates_buffered_total")) / wall
	}
	res.StragglerCuts = final.value("haccs_clients_straggler_cut_total") - base.value("haccs_clients_straggler_cut_total")
	res.Failed = final.value("haccs_clients_failed_total") - base.value("haccs_clients_failed_total")
	res.Reconnects = final.value("haccs_net_reconnects_total") - base.value("haccs_net_reconnects_total")
	res.SessionsMin = env.min("haccs_net_sessions_active")
	res.SessionsFinal = final.value("haccs_net_sessions_active")
	res.HeapMaxBytes = env.max("haccs_runtime_heap_bytes")
	res.GoroutinesMax = env.max("haccs_runtime_goroutines")
	res.GCPauseP99 = env.max("haccs_runtime_gc_pause_p99_seconds")
	res.SchedP99 = env.max("haccs_runtime_sched_latency_p99_seconds")
}
