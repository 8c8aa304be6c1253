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
	// StormFraction, when positive, kills the connections of the first
	// ⌊StormFraction·N⌋ client IDs halfway through the leg and requires
	// the fleet to reconnect.
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

// RunLeg runs one scenario end to end: boot the leg's topology — a
// flat coordinator, or a root over leg.Shards shard coordinators —
// with its telemetry and fleet endpoints, launch the fleet, drive the
// rounds (injecting the leg's storm or crash), scrape throughout, and
// fold the scrapes into a LegResult.
func RunLeg(cfg MatrixConfig, leg Leg) (LegResult, error) {
	cfg = cfg.withDefaults()
	res := LegResult{Name: leg.Name, Clients: cfg.Fleet.N, Rounds: leg.Rounds, CrashResumedFrom: -1, StormRecoverySec: -1}
	if leg.Mode == rounds.ModeAsync && leg.Deadline != 0 {
		return res, fmt.Errorf("async leg cannot carry a deadline")
	}
	var store *checkpoint.Store
	if leg.Crash {
		if cfg.CheckpointDir == "" {
			return res, fmt.Errorf("crash leg needs MatrixConfig.CheckpointDir")
		}
		var err error
		if store, err = checkpoint.NewStore(filepath.Join(cfg.CheckpointDir, leg.Name), 2); err != nil {
			return res, err
		}
	}

	reg := telemetry.NewRegistry()
	rc := telemetry.NewRuntimeCollector(reg, 0)
	rc.Start()
	defer rc.Stop()
	le := legEnv{cfg: cfg, leg: leg, reg: reg, fleetReg: fleet.NewRegistry(cfg.Fleet.N, fleet.Options{Metrics: reg}), store: store}
	var topo topology = &flatTopology{legEnv: le}
	if leg.Shards > 1 {
		topo = &shardedTopology{legEnv: le, addr: "127.0.0.1:0"}
		res.Shards = leg.Shards
	}
	defer topo.stop()
	run, httpAddr, err := topo.up()
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

	stormAt, crashAt := topo.faults(leg.Rounds)
	if leg.StormFraction <= 0 {
		stormAt = -1
	}
	if !leg.Crash {
		crashAt = -1
	}
	var stormStart time.Time
	var reconnectsAtStorm float64

	start := time.Now()
	for r := 0; r < leg.Rounds; r++ {
		if r == stormAt {
			reconnectsAtStorm = env.points[len(env.points)-1].value("haccs_net_reconnects_total")
			res.StormKilled = topo.storm()
			stormStart = time.Now()
		}
		if r == crashAt {
			if run, httpAddr, err = crashAndRestore(topo, store); err != nil {
				return res, fmt.Errorf("crash+resume at round %d: %w", r, err)
			}
			scraper = NewScraper(httpAddr)
			res.CrashResumedFrom = run.NextRound()
			if res.CrashResumedFrom != r {
				res.Notes = append(res.Notes, fmt.Sprintf("resumed from round %d, expected %d", res.CrashResumedFrom, r))
			}
		}
		run.RunRound(r)
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

// crashAndRestore is the restart recipe under load: abort the
// coordinator side (no farewells — its peers see it die), bring it up
// again over the still-running fleet, and restore the latest snapshot.
// The telemetry and fleet registries carry across the crash (fleet
// state is additionally a checkpoint component, restored
// bit-identically).
func crashAndRestore(topo topology, store *checkpoint.Store) (coordinator, string, error) {
	if err := topo.abort(); err != nil {
		return nil, "", fmt.Errorf("abort: %w", err)
	}
	run, httpAddr, err := topo.up()
	if err != nil {
		return nil, "", err
	}
	snap, err := store.LoadLatest()
	if err != nil {
		return nil, "", fmt.Errorf("load snapshot: %w", err)
	}
	if err := run.Restore(snap); err != nil {
		return nil, "", fmt.Errorf("restore: %w", err)
	}
	return run, httpAddr, nil
}

// topology is the coordinator side a leg runs on, together with the
// fleet it serves: flat (one flnet coordinator) or sharded (a root
// aggregator over shard coordinators). RunLeg drives either through
// the same loop, scrapes and summary.
type topology interface {
	// up brings the coordinator side up — the first time together with
	// the fleet, after abort over the running fleet — and returns its
	// round runtime and observability address.
	up() (coordinator, string, error)
	// abort kills the coordinator side without farewells: a crash.
	abort() error
	// storm closes the leg's storm victims' connections and returns
	// how many it closed.
	storm() int
	// faults places the storm and the crash in a leg of n rounds.
	faults(n int) (stormAt, crashAt int)
	// stop tears down everything up started.
	stop()
}

// coordinator is the round runtime a topology builds:
// *flnet.Coordinator or *shard.Root.
type coordinator interface {
	RunRound(round int) rounds.Outcome
	Restore(snap *checkpoint.Snapshot) error
	NextRound() int
}

// legEnv is what every topology builds its runtime from: the leg, the
// registries that outlive a crash, and the checkpoint store.
type legEnv struct {
	cfg      MatrixConfig
	leg      Leg
	reg      *telemetry.Registry
	fleetReg *fleet.Registry
	store    *checkpoint.Store
}

// strategy is the leg's selector, seeded the same on every (re)build.
func (e *legEnv) strategy() rounds.Strategy {
	return NewUniformStrategy(stats.DeriveSeed(e.cfg.Fleet.Seed, 0x5e1ec7))
}

// flatTopology is one flnet coordinator over the whole fleet. The storm
// and the crash both land halfway; a restarted coordinator binds a new
// port and the fleet is pointed at it.
type flatTopology struct {
	legEnv
	srv *flnet.Server
	fl  *Fleet
}

func (t *flatTopology) up() (coordinator, string, error) {
	var err error
	if t.srv, err = flnet.NewServer("127.0.0.1:0"); err != nil {
		return nil, "", err
	}
	httpAddr, err := t.srv.EnableTelemetry(t.reg, nil, "127.0.0.1:0",
		telemetry.WithEndpoint("/debug/fleet", fleet.Handler(t.fleetReg)))
	if err != nil {
		return nil, "", err
	}
	if t.fl == nil {
		if t.fl, err = StartFleet(t.cfg.Fleet, t.srv.Addr()); err != nil {
			return nil, "", err
		}
	} else {
		t.fl.SetTarget(t.srv.Addr())
	}
	if _, err := t.srv.AcceptClients(t.cfg.Fleet.N); err != nil {
		return nil, "", fmt.Errorf("accept: %w", err)
	}
	t.srv.ServeReconnects()
	coord, err := flnet.NewCoordinator(t.srv, flnet.CoordinatorConfig{
		ClientsPerRound: t.leg.K,
		Deadline:        t.leg.Deadline,
		Mode:            t.leg.Mode,
		Async:           t.leg.Async,
		Metrics:         t.reg,
		Fleet:           t.fleetReg,
		Checkpoint:      t.store,
		CheckpointEvery: 1,
	}, t.strategy(), make([]float64, t.cfg.ParamDim))
	if err != nil {
		return nil, "", err
	}
	return coord, httpAddr, nil
}

func (t *flatTopology) abort() error { return t.srv.Abort() }

// storm closes the connections of the first ⌊StormFraction·N⌋ client
// IDs.
func (t *flatTopology) storm() int {
	ids := make([]int, int(t.leg.StormFraction*float64(t.cfg.Fleet.N)))
	for i := range ids {
		ids[i] = i
	}
	return t.fl.Storm(ids)
}

func (t *flatTopology) faults(n int) (int, int) { return n / 2, n / 2 }

func (t *flatTopology) stop() {
	if t.fl != nil {
		t.fl.Stop()
	}
	if t.srv != nil {
		t.srv.Close()
	}
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
	// Root series: absent on a flat leg, so these read 0 there.
	res.ShardReconnects = final.value("haccs_root_shard_reconnects_total") - base.value("haccs_root_shard_reconnects_total")
	res.RootAggP99 = final.value("haccs_root_aggregate_seconds", [2]string{"quantile", "0.99"})
}
