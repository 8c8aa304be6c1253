// Command haccs-root runs the root aggregator of the hierarchical
// (sharded) coordination topology: it listens for shard coordinator
// agents on -listen, computes the heterogeneity-aware θ-budget plan
// from their Hello representatives, drives hierarchical FedAvg rounds
// over them, and serves the merged observability endpoints (/metrics,
// /debug/shards, /debug/fleet?shard=).
//
// With -checkpoint-dir the root persists its run state on cadence;
// restarting with -resume picks the latest snapshot and continues the
// round sequence after the shards re-register — the crash-recovery
// path the scale harness exercises under load.
//
// With -local-clients N the process additionally spawns the whole
// hierarchy below itself — -shards in-process shard coordinators, the
// consistent-hash partition of N synthetic clients, and the uplink
// agents — which makes a single invocation a self-contained smoke of
// the full shard wire protocol over loopback TCP:
//
//	haccs-root -shards 2 -local-clients 80 -k 8 -rounds 6 \
//	    -checkpoint-dir /tmp/root-ckpt
//	haccs-root -shards 2 -local-clients 80 -k 8 -rounds 12 \
//	    -checkpoint-dir /tmp/root-ckpt -resume   # continues at round 6
//
// Without -local-clients the root waits for -shards external agents.
package main

import (
	"flag"
	"fmt"
	"os"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/loadgen"
	"haccs/internal/rounds"
	"haccs/internal/shard"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:0", "address the root listens on for shard agents")
		shards       = flag.Int("shards", 2, "number of shard coordinators to accept before starting")
		roundsN      = flag.Int("rounds", 20, "total rounds to drive (a resumed root continues up to this index)")
		k            = flag.Int("k", 16, "global per-round selection budget")
		deadline     = flag.Float64("deadline", 0, "sync straggler deadline in virtual seconds (0 = none)")
		mode         = flag.String("mode", "sync", "round runtime: sync | async")
		bufferK      = flag.Int("buffer-k", 0, "async: shard-local aggregation buffer size (0 = k/2)")
		maxStale     = flag.Int("max-staleness", 0, "async: drop shard flushes staler than this many versions (0 = unbounded)")
		resyncEvery  = flag.Int("resync-every", 0, "async: push a fresh global base to shards every N cycles (0 = every cycle)")
		paramDim     = flag.Int("param-dim", 256, "global parameter vector length")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for root snapshots (empty = no checkpointing)")
		ckptEvery    = flag.Int("checkpoint-every", 1, "rounds between snapshots")
		resume       = flag.Bool("resume", false, "restore the latest snapshot from -checkpoint-dir and continue")
		localClients = flag.Int("local-clients", 0, "spawn this many synthetic clients across in-process shard coordinators (0 = wait for external agents)")
		httpAddr     = flag.String("http", "127.0.0.1:0", "observability endpoint address (empty = disabled)")
		seed         = flag.Uint64("seed", 42, "root random seed (selection and the local fleet)")
	)
	flag.Parse()

	f := rootFlags{
		Listen: *listen, Shards: *shards, Rounds: *roundsN, K: *k,
		Deadline: *deadline, Mode: *mode, BufferK: *bufferK,
		MaxStaleness: *maxStale, ResyncEvery: *resyncEvery, ParamDim: *paramDim,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
		LocalClients: *localClients, HTTP: *httpAddr,
	}
	if err := validateFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, "haccs-root:", err)
		os.Exit(2)
	}
	if err := run(f, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "haccs-root:", err)
		os.Exit(1)
	}
}

func run(f rootFlags, seed uint64) error {
	rootSrv, err := shard.NewRootServer(f.Listen)
	if err != nil {
		return err
	}
	defer rootSrv.Shutdown()
	fmt.Println("haccs-root: listening on", rootSrv.Addr())

	reg := telemetry.NewRegistry()
	var fleetReg *fleet.Registry

	// Self-contained mode: the whole hierarchy below the root runs
	// in-process — shard coordinators over their ring slices, a routed
	// synthetic fleet, and the uplink agents.
	if f.LocalClients > 0 {
		fleetReg = fleet.NewRegistry(f.LocalClients, fleet.Options{Metrics: reg})
		local, err := loadgen.StartHierarchy(loadgen.FleetConfig{N: f.LocalClients, Seed: seed}, f.Shards, rootSrv.Addr())
		if err != nil {
			return err
		}
		defer local.Stop()
	}

	hellos, err := rootSrv.AcceptShards(f.Shards)
	if err != nil {
		return err
	}
	rootSrv.ServeReconnects()
	total := 0
	for _, h := range hellos {
		fmt.Printf("haccs-root: shard %d registered with %d clients\n", h.ShardID, len(h.Clients))
		total += len(h.Clients)
	}

	var store *checkpoint.Store
	if f.CheckpointDir != "" {
		if store, err = checkpoint.NewStore(f.CheckpointDir, 3); err != nil {
			return err
		}
	}
	// The endpoint serves /debug/shards and /debug/fleet?shard= from
	// the server itself, so it can come up before the Root exists.
	if f.HTTP != "" {
		bound, err := rootSrv.EnableTelemetry(reg, f.HTTP, fleetReg)
		if err != nil {
			return err
		}
		fmt.Println("haccs-root: observability on", bound)
	}

	rcfg := shard.RootConfig{
		ClientsPerRound: f.K,
		Deadline:        f.Deadline,
		Metrics:         reg,
		Fleet:           fleetReg,
		Checkpoint:      store,
		CheckpointEvery: f.CheckpointEvery,
	}
	if f.Mode == "async" {
		rcfg.Mode = rounds.ModeAsync
		rcfg.Async = rounds.AsyncConfig{
			BufferK:      f.BufferK,
			MaxStaleness: f.MaxStaleness,
		}
		rcfg.ResyncEvery = f.ResyncEvery
	}
	var strategy rounds.Strategy
	if rcfg.Mode != rounds.ModeAsync {
		strategy = loadgen.NewUniformStrategy(stats.DeriveSeed(seed, 0x5e1ec7))
	}
	root, err := shard.NewRoot(rootSrv, rcfg, strategy, make([]float64, f.ParamDim))
	if err != nil {
		return err
	}

	if f.Resume {
		snap, err := store.LoadLatest()
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
		if err := root.Restore(snap); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		fmt.Println("haccs-root: resumed from checkpoint at round", root.NextRound())
	}

	for r := root.NextRound(); r < f.Rounds; r++ {
		out := root.RunRound(r)
		fmt.Printf("haccs-root: round %d: %d selected, %d reported, clock %.1fs\n",
			r, len(out.Selected), len(out.Reporters), root.Clock())
	}
	fmt.Printf("haccs-root: done — %d clients across %d shards, clock %.1fs, model version %d\n",
		total, len(hellos), root.Clock(), root.Driver().Version())
	return nil
}
