package loadgen

import (
	"fmt"
	"sync"

	"haccs/internal/flnet"
	"haccs/internal/shard"
)

// shardedTopology is the hierarchical deployment: the fleet partitions
// across leg.Shards shard coordinators by the consistent-hash ring, each
// shard runs an in-process agent uplinked to a root aggregator over
// loopback TCP, and every scraped number comes from the root's
// observability endpoint (the shard servers expose nothing — the
// merged view is the point). Fault injection moves up the tree with
// the topology: the storm hits one whole shard's slice a third of the
// way in (the fraction itself is implied), and the crash aborts the
// root, not a shard, two thirds in, while the shard servers and their
// fleets stay up.
type shardedTopology struct {
	legEnv
	// addr is the root's listen address: ephemeral at first, then the
	// bound one, so a restarted root lands under the agents' redial
	// loops.
	addr string
	srv  *shard.RootServer
	h    *Hierarchy
}

func (t *shardedTopology) up() (coordinator, string, error) {
	var err error
	if t.srv, err = shard.NewRootServer(t.addr); err != nil {
		return nil, "", err
	}
	t.addr = t.srv.Addr()
	httpAddr, err := t.srv.EnableTelemetry(t.reg, "127.0.0.1:0", t.fleetReg)
	if err != nil {
		return nil, "", err
	}
	if t.h == nil {
		if t.h, err = StartHierarchy(t.cfg.Fleet, t.leg.Shards, t.addr); err != nil {
			return nil, "", err
		}
	}
	if _, err := t.srv.AcceptShards(t.leg.Shards); err != nil {
		return nil, "", fmt.Errorf("root accept: %w", err)
	}
	t.srv.ServeReconnects()
	root, err := shard.NewRoot(t.srv, shard.RootConfig{
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
	return root, httpAddr, nil
}

func (t *shardedTopology) abort() error { return t.srv.Abort() }

// storm closes every connection of shard 0's slice.
func (t *shardedTopology) storm() int { return t.h.fleet.Storm(t.h.parts[0]) }

func (t *shardedTopology) faults(n int) (int, int) { return n / 3, 2 * n / 3 }

func (t *shardedTopology) stop() {
	if t.h != nil {
		t.h.Stop()
	}
	if t.srv != nil {
		t.srv.Shutdown()
	}
}

// Hierarchy is an in-process shard tier: one flnet coordinator per
// shard over its consistent-hash slice of a synthetic fleet, each
// uplinked to a root by a running agent.
type Hierarchy struct {
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
	h := &Hierarchy{parts: ring.Partition(fcfg.N), servers: make([]*flnet.Server, shards)}
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
