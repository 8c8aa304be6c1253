package experiments

import (
	"bytes"
	"testing"

	"haccs/internal/checkpoint"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/metrics"
	"haccs/internal/rounds"
	"haccs/internal/simnet"
)

// The async suite is the buffered-aggregation analogue of the golden /
// resume gates: every selection strategy must run under the async
// driver on both transports, a fixed seed must reproduce the trajectory
// byte for byte, and a run restored from a snapshot taken with updates
// still in flight must match the uninterrupted run bit for bit.

const (
	asyncSeed   = 171717
	asyncCycles = 14
	asyncSnapAt = 7 // mid-run snapshot used by the restore leg
)

// asyncEngine builds one async-mode engine over a freshly materialized
// canonical workload, mirroring resumeEngine: dropout on (availability
// interacts with the busy mask), no deadline (sync-only), staleness
// bound active, fleet registry attached so async observations join the
// bit-identical contract. store == nil disables checkpointing.
func asyncEngine(t *testing.T, stratIdx int, store *checkpoint.Store) (*fl.Engine, *fleet.Registry) {
	t.Helper()
	w := buildStandardWorkload("cifar", 10, Quick, asyncSeed)
	ec := defaultEngine(Quick, 0)
	ec.MaxRounds = asyncCycles
	ec.EvalEvery = 2
	ec.Record = true
	ec.Dropout = simnet.TransientDropout{
		Rate: 0.15,
		Seed: 9,
	}
	cfg := ec.ToFL(w, asyncSeed)
	cfg.Mode = rounds.ModeAsync
	cfg.Async = rounds.AsyncConfig{BufferK: 3, MaxStaleness: 8}
	if store != nil {
		cfg.Checkpoint = store
		cfg.CheckpointEvery = 1
	}
	s := buildStrategyForRun(w, stratIdx, 0, 0.75, asyncSeed)
	var src fleet.ClusterSource
	if cs, ok := s.(fleet.ClusterSource); ok {
		src = cs
	}
	reg := fleet.NewRegistry(len(w.Clients), fleet.Options{Source: src})
	cfg.Fleet = reg
	return fl.NewEngine(cfg, w.Clients, s), reg
}

// summaryJSON digests a result through the export path — the
// determinism contract is byte-identical summary JSON, not just equal
// floats.
func summaryJSON(t *testing.T, res *fl.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.Summarize(res, 0).WriteJSON(&buf); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	return buf.Bytes()
}

// TestAsyncConformanceAllStrategies drives every selection strategy —
// baselines, both HACCS variants and the sketch backends — through the
// async driver under dropout and verifies the engine invariants hold,
// and that two identically seeded runs export byte-identical summary
// JSON (the async determinism contract).
func TestAsyncConformanceAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	names := []string{"random", "tifl", "oort", "haccs-py", "haccs-pxy", "haccs-py-sketch", "haccs-pxy-sketch"}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			engA, _ := asyncEngine(t, i, nil)
			resA := engA.Run()
			if resA.Rounds != asyncCycles {
				t.Fatalf("cycles = %d, want %d", resA.Rounds, asyncCycles)
			}
			if len(resA.History) == 0 {
				t.Fatal("no evaluations recorded")
			}
			if resA.FinalAccuracy() <= 0 {
				t.Error("final accuracy not positive")
			}
			budget := defaultEngine(Quick, 0).ClientsPerRound
			for r, sel := range resA.Selected {
				if len(sel) > budget {
					t.Errorf("cycle %d dispatched over concurrency: %d", r, len(sel))
				}
			}

			engB, _ := asyncEngine(t, i, nil)
			resB := engB.Run()
			a, b := summaryJSON(t, resA), summaryJSON(t, resB)
			if !bytes.Equal(a, b) {
				t.Errorf("two identically seeded async runs exported different summaries:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestAsyncResumeFromMidRunSnapshot is the crash-mid-buffer leg of the
// resume gate: a snapshot taken while dispatched updates are still in
// flight (queued finish events carrying trained deltas) must restore
// into a fresh engine and reproduce the uninterrupted trajectory bit
// for bit — clock, history, selections and the final parameter vector —
// including the fleet registry's staleness state.
func TestAsyncResumeFromMidRunSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	names := []string{"random", "tifl", "oort", "haccs-py", "haccs-pxy", "haccs-py-sketch", "haccs-pxy-sketch"}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			refEng, refFleet := asyncEngine(t, i, nil)
			ref := refEng.Run()
			refBytes := fleetSnapshot(t, refFleet)

			store, err := checkpoint.NewStore(t.TempDir(), asyncCycles+2)
			if err != nil {
				t.Fatal(err)
			}
			chkEng, chkFleet := asyncEngine(t, i, store)
			assertSameResult(t, "checkpointed", chkEng.Run(), ref)
			if !bytes.Equal(fleetSnapshot(t, chkFleet), refBytes) {
				t.Error("checkpointed: fleet registry state differs from reference")
			}

			snap, err := store.Load(asyncSnapAt)
			if err != nil {
				t.Fatalf("load mid-run snapshot: %v", err)
			}
			eng, resFleet := asyncEngine(t, i, nil)
			if err := eng.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			// The point of this leg: the snapshot must capture a
			// non-trivial in-flight state, or it degenerates into the
			// sync resume test with different labels.
			type inflighter interface{ InFlight() int }
			if fl, ok := eng.Runner().(inflighter); !ok {
				t.Fatal("async runner does not expose InFlight")
			} else if fl.InFlight() == 0 {
				t.Fatal("snapshot restored with an empty event queue; pick a snapAt with updates in flight")
			}
			assertSameResult(t, "resumed", eng.Run(), ref)
			if !bytes.Equal(fleetSnapshot(t, resFleet), refBytes) {
				t.Error("resumed: fleet registry state differs from reference")
			}
		})
	}
}

// TestAsyncModeMismatchRejected pins the failure mode the driver_async
// component name exists for: a snapshot from a sync run must not
// restore into an async engine (and vice versa) — the component tables
// differ, so Restore fails loudly instead of silently reinterpreting
// driver state.
func TestAsyncModeMismatchRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	syncEng, _ := resumeEngine(t, 0, nil)
	snap, err := syncEng.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	asyncEng, _ := asyncEngine(t, 0, nil)
	if err := asyncEng.Restore(snap); err == nil {
		t.Fatal("sync snapshot restored into an async engine")
	}
}

// TestAsyncFederatedTrainingOverTCP is the buffered async row of the
// wire ≡ engine harness (see TestFederatedTrainingOverTCP): the same
// gob protocol, registration flow and HACCS clustering, but the
// coordinator dispatches eagerly and flushes BufferK-deep buffers, and
// every cycle must still equal the engine's bit for bit. This is the
// second-transport leg of the async acceptance gate.
func TestAsyncFederatedTrainingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network training run skipped in -short mode")
	}
	const cycles = 60
	flushes := 0
	firstLoss, lastLoss := 0.0, 0.0
	run := runWireAndEngine(t, cycles, func(cfg *fl.Config, _ *Workload) {
		cfg.Mode = rounds.ModeAsync
		cfg.Async = rounds.AsyncConfig{BufferK: 2, MaxStaleness: 8}
	}, func(cycle int, out rounds.Outcome) {
		if len(out.Failed) != 0 {
			t.Fatalf("cycle %d failed clients over a live TCP transport: %v", cycle, out.Failed)
		}
		if !out.Aggregated {
			return
		}
		if flushes == 0 {
			firstLoss = meanLoss(out)
		}
		lastLoss = meanLoss(out)
		flushes++
	})
	if flushes < cycles/2 {
		t.Errorf("only %d of %d cycles flushed the buffer", flushes, cycles)
	}
	if lastLoss >= firstLoss {
		t.Errorf("async training over TCP did not reduce loss: %.3f -> %.3f", firstLoss, lastLoss)
	}
	if acc, _, _ := run.eng.Evaluate(); acc < 0.4 {
		t.Errorf("async TCP-trained global model accuracy %.3f, want >= 0.4", acc)
	}
}

// TestAsyncBeatsSyncUnderHeavyTail runs the committed heavy-tail
// experiment and asserts its headline: under a latency distribution
// with a deliberate heavy tail, the async driver reaches the common
// accuracy target in less virtual time than barrier rounds.
func TestAsyncBeatsSyncUnderHeavyTail(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs skipped in -short mode")
	}
	r := RunAsyncComparison(Quick, 1)
	t.Logf("\n%s", r)
	if !r.Reached {
		t.Fatalf("target %.3f not reached by both legs: %+v", r.Target, r)
	}
	if r.Speedup <= 1 {
		t.Errorf("async TTA %.1fs not faster than sync TTA %.1fs under heavy-tail latency",
			r.AsyncTTA, r.SyncTTA)
	}
}
