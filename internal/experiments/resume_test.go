package experiments

import (
	"bytes"
	"math"
	"testing"

	"haccs/internal/checkpoint"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/simnet"
)

// The resume suite is the checkpoint subsystem's acceptance gate: for
// every selection strategy, a run that snapshots each round and a run
// restored from a mid-run snapshot must both reproduce the
// uninterrupted trajectory bit for bit — clock, history, selections,
// per-client accuracies and the final parameter vector. The workload
// deliberately turns on the two features that interact with recovery:
// transient dropout (a stateless per-epoch mask that must realign) and
// a round deadline (partial aggregation, so the strategies' loss
// feedback differs from the synchronous path).

const (
	resumeSeed   = 424242
	resumeRounds = 12
	resumeSnapAt = 7 // mid-run snapshot used by the restore leg
)

// resumeEngine builds one engine over a freshly materialized canonical
// workload, as a restarted process would, with a fleet health registry
// attached so the suite also proves the registry's state is part of the
// bit-identical contract. store == nil disables checkpointing.
func resumeEngine(t *testing.T, stratIdx int, store *checkpoint.Store) (*fl.Engine, *fleet.Registry) {
	t.Helper()
	w := buildStandardWorkload("cifar", 10, Quick, resumeSeed)
	ec := defaultEngine(Quick, 0) // no target: every leg runs to MaxRounds
	ec.MaxRounds = resumeRounds
	ec.EvalEvery = 2
	ec.Record = true
	ec.Dropout = simnet.TransientDropout{
		Rate: 0.15,
		Seed: 9,
	}
	cfg := ec.ToFL(w, resumeSeed)
	cfg.RoundDeadline = 6 // cuts the slowest selected clients most rounds
	if store != nil {
		cfg.Checkpoint = store
		cfg.CheckpointEvery = 1
	}
	s := buildStrategyForRun(w, stratIdx, 0, 0.75, resumeSeed)
	var src fleet.ClusterSource
	if cs, ok := s.(fleet.ClusterSource); ok {
		src = cs // HACCS strategies expose cluster targets
	}
	reg := fleet.NewRegistry(len(w.Clients), fleet.Options{Source: src})
	cfg.Fleet = reg
	return fl.NewEngine(cfg, w.Clients, s), reg
}

// fleetSnapshot serializes a registry, failing the test on error.
func fleetSnapshot(t *testing.T, r *fleet.Registry) []byte {
	t.Helper()
	b, err := r.SnapshotState()
	if err != nil {
		t.Fatalf("fleet snapshot: %v", err)
	}
	return b
}

// assertSameResult compares two runs bit for bit: float64 fields by
// their IEEE-754 bit patterns, never by tolerance.
func assertSameResult(t *testing.T, leg string, got, want *fl.Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("%s: rounds = %d, want %d", leg, got.Rounds, want.Rounds)
	}
	if g, w := math.Float64bits(got.Clock), math.Float64bits(want.Clock); g != w {
		t.Errorf("%s: clock bits = %#x, want %#x (%v vs %v)", leg, g, w, got.Clock, want.Clock)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history has %d points, want %d", leg, len(got.History), len(want.History))
	}
	for i, p := range got.History {
		q := want.History[i]
		if p.Round != q.Round ||
			math.Float64bits(p.Time) != math.Float64bits(q.Time) ||
			math.Float64bits(p.Acc) != math.Float64bits(q.Acc) ||
			math.Float64bits(p.Loss) != math.Float64bits(q.Loss) {
			t.Errorf("%s: history[%d] = %+v, want %+v", leg, i, p, q)
		}
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("%s: %d selection rounds, want %d", leg, len(got.Selected), len(want.Selected))
	}
	for r, sel := range got.Selected {
		if len(sel) != len(want.Selected[r]) {
			t.Errorf("%s: round %d selected %v, want %v", leg, r, sel, want.Selected[r])
			continue
		}
		for i, id := range sel {
			if id != want.Selected[r][i] {
				t.Errorf("%s: round %d selected %v, want %v", leg, r, sel, want.Selected[r])
				break
			}
		}
	}
	if len(got.PerClientAcc) != len(want.PerClientAcc) {
		t.Fatalf("%s: %d per-client accuracies, want %d", leg, len(got.PerClientAcc), len(want.PerClientAcc))
	}
	for i, v := range got.PerClientAcc {
		if math.Float64bits(v) != math.Float64bits(want.PerClientAcc[i]) {
			t.Errorf("%s: perClientAcc[%d] = %v, want %v", leg, i, v, want.PerClientAcc[i])
		}
	}
	if gh, wh := paramsHash(got.FinalParams), paramsHash(want.FinalParams); gh != wh {
		t.Errorf("%s: final params hash = %#x, want %#x", leg, gh, wh)
	}
}

// TestResumeBitIdentical runs three legs per strategy: A uninterrupted
// (the reference), B with per-round checkpointing (proving snapshots
// are observationally free), and C a fresh engine restored from the
// round-7 snapshot and run to completion (proving restore continues
// every RNG stream, the virtual clock and the strategies' mutable
// state exactly).
func TestResumeBitIdentical(t *testing.T) {
	names := []string{"random", "tifl", "oort", "haccs-py", "haccs-pxy", "haccs-py-sketch", "haccs-pxy-sketch"}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			refEng, refFleet := resumeEngine(t, i, nil)
			ref := refEng.Run()
			refBytes := fleetSnapshot(t, refFleet)

			store, err := checkpoint.NewStore(t.TempDir(), resumeRounds+2)
			if err != nil {
				t.Fatal(err)
			}
			chkEng, chkFleet := resumeEngine(t, i, store)
			assertSameResult(t, "checkpointed", chkEng.Run(), ref)
			if !bytes.Equal(fleetSnapshot(t, chkFleet), refBytes) {
				t.Error("checkpointed: fleet registry state differs from reference")
			}

			snap, err := store.Load(resumeSnapAt)
			if err != nil {
				t.Fatalf("load mid-run snapshot: %v", err)
			}
			eng, resFleet := resumeEngine(t, i, nil)
			if err := eng.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if eng.StartRound() != resumeSnapAt {
				t.Fatalf("StartRound = %d, want %d", eng.StartRound(), resumeSnapAt)
			}
			assertSameResult(t, "resumed", eng.Run(), ref)
			if !bytes.Equal(fleetSnapshot(t, resFleet), refBytes) {
				t.Error("resumed: fleet registry state differs from reference")
			}
		})
	}
}

// TestRestoreValidation pins the failure modes: a snapshot must not
// restore into an engine with a different strategy or seed, nor into
// an engine that has already run.
func TestRestoreValidation(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := resumeEngine(t, 0, store)
	snap, err := eng.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(snap); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong_strategy", func(t *testing.T) {
		other, _ := resumeEngine(t, 1, nil) // tifl, snapshot is random
		if err := other.Restore(snap); err == nil {
			t.Fatal("snapshot restored into a different strategy")
		}
	})
	t.Run("already_ran", func(t *testing.T) {
		ran, _ := resumeEngine(t, 0, nil)
		ran.Run()
		if err := ran.Restore(snap); err == nil {
			t.Fatal("snapshot restored into an engine that already ran")
		}
	})
	t.Run("wrong_seed", func(t *testing.T) {
		w := buildStandardWorkload("cifar", 10, Quick, resumeSeed)
		ec := defaultEngine(Quick, 0)
		ec.MaxRounds = resumeRounds
		cfg := ec.ToFL(w, resumeSeed+1) // different root seed
		other := fl.NewEngine(cfg, w.Clients, buildStrategyForRun(w, 0, 0, 0.75, resumeSeed+1))
		if err := other.Restore(snap); err == nil {
			t.Fatal("snapshot restored under a different seed")
		}
	})
}
