package loadgen

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/shard"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// runShardedLeg is RunLeg's hierarchical variant: the fleet partitions
// across leg.Shards shard coordinators by the consistent-hash ring,
// each shard runs an in-process agent uplinked to a root aggregator
// over loopback TCP, and every scraped number comes from the root's
// observability endpoint (the shard servers expose nothing — the
// merged view is the point). Fault injection moves up the tree with
// the topology: the storm (StormFraction > 0; the fraction itself is
// implied — one whole shard's slice) hits a third of the way in, and
// Crash aborts the root, not a shard, two thirds in, resuming from the
// root checkpoint while the shard processes and their fleets stay up.
func runShardedLeg(cfg MatrixConfig, leg Leg) (LegResult, error) {
	res := LegResult{
		Name: leg.Name, Clients: cfg.Fleet.N, Rounds: leg.Rounds,
		Shards: leg.Shards, CrashResumedFrom: -1, StormRecoverySec: -1,
	}
	if leg.Mode == rounds.ModeAsync && leg.Deadline != 0 {
		return res, fmt.Errorf("async leg cannot carry a deadline")
	}
	var store *checkpoint.Store
	var err error
	if leg.Crash {
		if cfg.CheckpointDir == "" {
			return res, fmt.Errorf("crash leg needs MatrixConfig.CheckpointDir")
		}
		store, err = checkpoint.NewStore(filepath.Join(cfg.CheckpointDir, leg.Name), 2)
		if err != nil {
			return res, err
		}
	}

	reg := telemetry.NewRegistry()
	rc := telemetry.NewRuntimeCollector(reg, cfg.RuntimeSample)
	rc.Start()
	defer rc.Stop()
	fleetReg := fleet.NewRegistry(cfg.Fleet.N, fleet.Options{Metrics: reg})

	rootSrv, err := shard.NewRootServer("127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer func() { rootSrv.Shutdown() }()
	h, err := StartHierarchy(cfg.Fleet, leg.Shards, rootSrv.Addr())
	if err != nil {
		return res, err
	}
	defer h.Stop()

	// The root's observability endpoint rebinds after a crash, and its
	// /debug/shards view needs the current Root, so the handlers read
	// through an atomic pointer.
	var rootPtr atomic.Pointer[shard.Root]
	observe := func(srv *shard.RootServer) (string, error) {
		return srv.EnableTelemetry(reg, nil, nil, "127.0.0.1:0",
			telemetry.WithEndpoint("/debug/fleet", shard.FleetHandler(fleetReg, h.ring.Owner)),
			telemetry.WithEndpoint("/debug/shards", shard.StatusHandler(func() []rounds.ShardStatus {
				if r := rootPtr.Load(); r != nil {
					return r.ShardStatuses()
				}
				return nil
			})))
	}
	httpAddr, err := observe(rootSrv)
	if err != nil {
		return res, err
	}
	if _, err := rootSrv.AcceptShards(leg.Shards); err != nil {
		return res, err
	}
	rootSrv.ServeReconnects()

	rcfg := shard.RootConfig{
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
	root, err := shard.NewRoot(rootSrv, rcfg, NewUniformStrategy(strategySeed), make([]float64, cfg.ParamDim))
	if err != nil {
		return res, err
	}
	rootPtr.Store(root)

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
		stormAt = leg.Rounds / 3
	}
	if leg.Crash {
		crashAt = 2 * leg.Rounds / 3
	}
	var stormStart time.Time
	var reconnectsAtStorm float64

	start := time.Now()
	for r := 0; r < leg.Rounds; r++ {
		if r == stormAt {
			reconnectsAtStorm = env.points[len(env.points)-1].value("haccs_net_reconnects_total")
			res.StormKilled = h.fleet.StormIDs(h.parts[0])
			stormStart = time.Now()
		}
		if r == crashAt {
			addr := rootSrv.Addr()
			if err := rootSrv.Abort(); err != nil {
				return res, fmt.Errorf("root abort: %w", err)
			}
			// Rebind the same address so the shard agents' redial loops
			// land on the restarted root.
			restarted, err := shard.NewRootServer(addr)
			if err != nil {
				return res, fmt.Errorf("root restart: %w", err)
			}
			rootSrv = restarted
			if httpAddr, err = observe(rootSrv); err != nil {
				return res, fmt.Errorf("root restart: %w", err)
			}
			if _, err := rootSrv.AcceptShards(leg.Shards); err != nil {
				return res, fmt.Errorf("root re-accept: %w", err)
			}
			rootSrv.ServeReconnects()
			root, err = shard.NewRoot(rootSrv, rcfg, NewUniformStrategy(strategySeed), make([]float64, cfg.ParamDim))
			if err != nil {
				return res, fmt.Errorf("root rebuild: %w", err)
			}
			snap, err := store.LoadLatest()
			if err != nil {
				return res, fmt.Errorf("load snapshot: %w", err)
			}
			if err := root.Restore(snap); err != nil {
				return res, fmt.Errorf("restore: %w", err)
			}
			rootPtr.Store(root)
			scraper = NewScraper(httpAddr)
			res.CrashResumedFrom = root.NextRound()
			if res.CrashResumedFrom != r {
				res.Notes = append(res.Notes, fmt.Sprintf("resumed from round %d, expected %d", res.CrashResumedFrom, r))
			}
		}
		root.RunRound(r)
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
	res.ShardReconnects = final.value("haccs_root_shard_reconnects_total") - base.value("haccs_root_shard_reconnects_total")
	res.RootAggP99 = final.value("haccs_root_aggregate_seconds", [2]string{"quantile", "0.99"})
	res.Pass = len(res.ScrapeErrors) == 0 &&
		res.RoundsPerSec > 0 &&
		(!leg.Crash || res.CrashResumedFrom >= 0) &&
		(res.StormKilled == 0 || res.StormRecoverySec >= 0)
	return res, nil
}

// Hierarchy is an in-process shard tier: one flnet coordinator per
// shard over its consistent-hash slice of a synthetic fleet, each
// uplinked to a root by a running agent.
type Hierarchy struct {
	ring    *shard.Ring
	parts   [][]int // parts[s]: the client IDs shard s owns
	servers []*flnet.Server
	fleet   *Fleet
	agents  []*shard.Agent
	running sync.WaitGroup // the agents' Run loops
}

// StartHierarchy builds the tier below the root listening at rootAddr:
// the ring over shard IDs 0..shards-1 and its partition of the fcfg.N
// clients, one flnet server per shard, the fleet routed to its owners
// (fcfg.Route is replaced), every slice accepted with reconnects
// served, and one running agent per shard. The root accepts the
// agents' Hellos itself. On error everything started is stopped.
func StartHierarchy(fcfg FleetConfig, shards int, rootAddr string) (*Hierarchy, error) {
	ids := make([]int, shards)
	for s := range ids {
		ids[s] = s
	}
	ring, err := shard.NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{ring: ring, parts: ring.Partition(fcfg.N), servers: make([]*flnet.Server, shards)}
	fail := func(err error) (*Hierarchy, error) {
		h.Stop()
		return nil, err
	}
	for s := range h.servers {
		if h.servers[s], err = flnet.NewServer("127.0.0.1:0"); err != nil {
			return fail(err)
		}
	}
	fcfg.Route = func(id int) string { return h.servers[ring.Owner(id)].Addr() }
	if h.fleet, err = StartFleet(fcfg, h.servers[0].Addr()); err != nil {
		return fail(err)
	}
	for s, srv := range h.servers {
		if _, err := srv.AcceptClients(len(h.parts[s])); err != nil {
			return fail(fmt.Errorf("shard %d accept: %w", s, err))
		}
		srv.ServeReconnects()
	}
	for s, srv := range h.servers {
		agent, err := shard.NewAgent(shard.AgentConfig{ShardID: s, Root: rootAddr, Server: srv})
		if err != nil {
			return fail(fmt.Errorf("shard %d agent: %w", s, err))
		}
		h.agents = append(h.agents, agent)
		h.running.Add(1)
		go func() {
			defer h.running.Done()
			agent.Run()
		}()
	}
	return h, nil
}

// Stop closes the agents and waits for their Run loops to return, then
// stops the fleet and closes the shard servers.
func (h *Hierarchy) Stop() {
	for _, a := range h.agents {
		a.Close()
	}
	h.running.Wait()
	if h.fleet != nil {
		h.fleet.Stop()
	}
	for _, s := range h.servers {
		if s != nil {
			s.Close()
		}
	}
}
