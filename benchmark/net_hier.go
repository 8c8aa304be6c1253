package main

import (
	"fmt"
	"sync"
	"time"

	"haccs/internal/fleet"
	"haccs/internal/flnet"
	"haccs/internal/loadgen"
	"haccs/internal/rounds"
	"haccs/internal/shard"
	"haccs/internal/stats"
)

// hierSize sizes net_hier_async.
type hierSize struct {
	shards, clients, k, bufferK, dim int
}

var (
	hierFull  = hierSize{shards: 2, clients: 96, k: 16, bufferK: 4, dim: 4096}
	hierShort = hierSize{shards: 2, clients: 16, k: 8, bufferK: 2, dim: 256}
)

const (
	hierBaseSec    = 2.0 // virtual round latency of an ordinary client
	hierSlowEvery  = 4   // one client in four is a straggler ...
	hierSlowFactor = 15  // ... this much slower
	hierStaleness  = 16
)

type netHier struct {
	size    hierSize
	tr      *tracer
	servers []*flnet.Server
	rootSrv *shard.RootServer
	root    *shard.Root
	agents  []*shard.Agent
	agentWG sync.WaitGroup
	fleet   *clientFleet

	hash      uint64
	dupes     int
	pending   int // exchanges whose update has not reached the root yet
	unsettled bool

	frames0, bytes0 int64
}

// setupNetHier builds the two-level tree over loopback TCP: harness
// clients split by the consistent-hash ring across shard servers, one
// agent per shard uplinked to a root in buffered-async mode, fleet
// registry on.
func setupNetHier(e *env, warmRounds, _ int) (instance, error) {
	size := hierFull
	if e.short {
		size = hierShort
	}
	ids := make([]int, size.shards)
	for s := range ids {
		ids[s] = s
	}
	ring, err := shard.NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	parts := ring.Partition(size.clients)

	nh := &netHier{size: size, tr: e.tr, hash: fnvOffset64}
	fail := func(err error) (instance, error) {
		nh.close()
		return nil, err
	}
	for range ids {
		srv, err := flnet.NewServer("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		nh.servers = append(nh.servers, srv)
	}
	// One client in hierSlowEvery of every shard is a straggler; the
	// seed picks which.
	slow := make([]bool, size.clients)
	rng := stats.NewRNG(stats.DeriveSeed(e.seed, 1))
	for _, part := range parts {
		for i, j := range rng.Perm(len(part)) {
			slow[part[j]] = i%hierSlowEvery == 0
		}
	}
	specs := make([]clientSpec, size.clients)
	for id := range specs {
		lat := hierBaseSec
		if slow[id] {
			lat *= hierSlowFactor
		}
		owner := ring.Owner(id)
		// Each shard's clients share one label mix of their own, so the
		// root's θ-budget plan gives every shard k/shards slots however
		// the ring happens to split the roster.
		counts := make([]float64, size.shards)
		counts[owner] = 1
		specs[id] = clientSpec{id: id, addr: nh.servers[owner].Addr(), latency: lat, samples: 100 + id%50, labelCounts: counts}
	}
	if nh.fleet, err = startFleet(specs); err != nil {
		return fail(err)
	}
	s := time.Now()
	for i, srv := range nh.servers {
		if _, err := srv.AcceptClients(len(parts[i])); err != nil {
			return fail(fmt.Errorf("shard %d accept: %w", i, err))
		}
	}
	e.times.add("flnet.accept_ms", time.Since(s).Seconds())

	if nh.rootSrv, err = shard.NewRootServer("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	_, reg := e.tr.sys()
	for i, srv := range nh.servers {
		a, err := shard.NewAgent(shard.AgentConfig{ShardID: i, Root: nh.rootSrv.Addr(), Server: srv,
			Metrics: reg, StrategySeed: stats.DeriveSeed(e.seed, 2)})
		if err != nil {
			return fail(fmt.Errorf("shard %d agent: %w", i, err))
		}
		nh.agents = append(nh.agents, a)
		nh.agentWG.Add(1)
		go func() {
			defer nh.agentWG.Done()
			a.Run()
		}()
	}
	s = time.Now()
	if _, err := nh.rootSrv.AcceptShards(size.shards); err != nil {
		return fail(err)
	}
	nh.root, err = shard.NewRoot(nh.rootSrv, shard.RootConfig{
		ClientsPerRound: size.k,
		Mode:            rounds.ModeAsync,
		Async:           rounds.AsyncConfig{BufferK: size.bufferK, MaxStaleness: hierStaleness},
		Metrics:         reg,
		Fleet:           fleet.NewRegistry(size.clients, fleet.Options{Metrics: reg}),
	}, loadgen.NewUniformStrategy(stats.DeriveSeed(e.seed, 3)), make([]float64, size.dim))
	if err != nil {
		return fail(err)
	}
	e.times.add("shard.accept_ms", time.Since(s).Seconds())
	for i := range nh.servers {
		if b := nh.root.Budget(i); b != size.k/size.shards {
			return fail(fmt.Errorf("shard %d budget %d, want %d", i, b, size.k/size.shards))
		}
	}
	for r := 0; r < warmRounds; r++ {
		nh.step(r)
	}
	nh.frames0, nh.bytes0 = nh.frames(), nh.bytes()
	return nh, nil
}

func (n *netHier) frames() int64 { return n.fleet.calls.Load() + n.fleet.counts.writes.Load() }
func (n *netHier) bytes() int64 {
	return n.fleet.counts.readBytes.Load() + n.fleet.counts.writeBytes.Load()
}

func (n *netHier) step(round int) (int, int) {
	before := n.fleet.calls.Load()
	id := n.tr.id()
	start := time.Now()
	out := n.root.RunRound(round) // one root cycle: every shard flushes one buffer
	n.tr.record("run_round", id, "", round, start, time.Since(start))
	// In async mode the shards select; what the harness can see is every
	// training exchange its own clients served, and every update the
	// root accounted for. An exchange is pending until its update
	// reports, is cut as stale, or fails.
	dispatched := int(n.fleet.calls.Load() - before)
	n.pending += dispatched - len(out.Reporters) - len(out.Cut) - len(out.Failed)
	if n.pending < 0 || n.pending > n.size.k {
		n.unsettled = true
	}
	n.hash = fnvInt(n.hash, round)
	for i, c := range out.Reporters {
		n.hash = fnvInt(n.hash, c)
		for _, d := range out.Reporters[:i] {
			if c == d {
				n.dupes++
			}
		}
	}
	failed := len(out.Failed)
	if !out.Aggregated {
		failed++
	}
	return dispatched, failed
}

func (n *netHier) finish(rounds int) []check {
	g := n.root.Global()
	failures := 0
	for _, st := range n.root.ShardStatuses() {
		failures += st.Failures
	}
	return []check{
		{name: "global_finite_uniform", ok: allFinite(g) && allEqual(g) && g[0] != 0,
			detail: fmt.Sprintf("coordinate %.12g over %d parameters", g[0], len(g))},
		{name: "exchanges_conserved", ok: !n.unsettled && n.dupes == 0,
			detail: fmt.Sprintf("dispatched = reported + cut + failed + pending each round, 0 <= pending <= %d (now %d); %d duplicate reporters", n.size.k, n.pending, n.dupes)},
		{name: "no_shard_failures", ok: failures == 0, detail: fmt.Sprintf("%d shard round-trip failures", failures)},
	}
}

func (n *netHier) outputs() exactOutputs {
	return exactOutputs{virtualTime: n.root.Clock(), globalFNV: hashFloats(n.root.Global()), selectFNV: n.hash}
}

func (n *netHier) layers(m layerMetrics, rounds int) {
	m["flnet.bytes_per_round"] = float64(n.bytes()-n.bytes0) / float64(rounds)
	m["flnet.frames_per_round"] = float64(n.frames()-n.frames0) / float64(rounds)
	m["shard.round_ms"] = histMeanMS(n.tr.reg, "haccs_shard_round_seconds")
	m["shard.root_merge_ms"] = histMeanMS(n.tr.reg, "haccs_root_aggregate_seconds")
	if sum, cnt := histSum(n.tr.reg, "haccs_async_staleness"); cnt > 0 {
		m["rounds.staleness_mean"] = sum / float64(cnt)
	}
	m["rounds.updates_stale"] = counterValue(n.tr.reg, "haccs_async_updates_stale_total") +
		counterValue(n.tr.reg, "haccs_shard_stale_total")
	m["rounds.fedavg_ms"] = fedAvgMS(n.size.k, n.size.dim)
	m["flnet.train_rtt_ms"] = trainRTTMS(n.servers[0], n.servers[0].Registrations()[0].ClientID, n.size.dim)
}

func (n *netHier) close() {
	if n.rootSrv != nil {
		n.rootSrv.Shutdown() // Bye to every agent, so Agent.Run returns
	}
	for _, a := range n.agents {
		a.Close()
	}
	n.agentWG.Wait()
	for _, srv := range n.servers {
		srv.Shutdown()
	}
	if n.fleet != nil {
		n.fleet.wait()
	}
}
