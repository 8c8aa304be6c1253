package fl

import (
	"fmt"

	"haccs/internal/checkpoint"
)

// runStateVersion versions the engine's run-progress payload.
const runStateVersion = 1

// runState is the engine's run-level progress: everything Run
// accumulates outside the driver, plus the seed and strategy name so a
// restore into a differently configured engine fails loudly instead of
// resuming a subtly different experiment.
type runState struct {
	Version      int
	Seed         uint64
	Strategy     string
	Rounds       int
	History      []Point
	PerClientAcc []float64
	Selected     [][]int
}

// engineRun adapts the engine's run-level progress to
// checkpoint.Snapshotter.
type engineRun struct{ e *Engine }

// SnapshotState implements checkpoint.Snapshotter.
func (r engineRun) SnapshotState() ([]byte, error) {
	e := r.e
	st := runState{
		Version:      runStateVersion,
		Seed:         e.cfg.Seed,
		Strategy:     e.strategy.Name(),
		Rounds:       e.roundsDone,
		History:      append([]Point(nil), e.history...),
		PerClientAcc: append([]float64(nil), e.perClientAcc...),
		Selected:     append([][]int(nil), e.selected...),
	}
	return checkpoint.EncodeGob("fl: run state", st)
}

// RestoreState implements checkpoint.Snapshotter.
func (r engineRun) RestoreState(data []byte) error {
	e := r.e
	var st runState
	if err := checkpoint.DecodeGob("fl: run state", data, &st); err != nil {
		return err
	}
	if st.Version != runStateVersion {
		return fmt.Errorf("fl: run state version %d, this build reads %d", st.Version, runStateVersion)
	}
	if st.Seed != e.cfg.Seed {
		return fmt.Errorf("fl: snapshot taken with seed %d, engine configured with %d", st.Seed, e.cfg.Seed)
	}
	if st.Strategy != e.strategy.Name() {
		return fmt.Errorf("fl: snapshot taken with strategy %q, engine runs %q", st.Strategy, e.strategy.Name())
	}
	e.roundsDone = st.Rounds
	e.history = st.History
	e.perClientAcc = st.PerClientAcc
	e.selected = st.Selected
	return nil
}

// Snapshot captures the engine's complete run state after roundsDone
// completed rounds, independent of any configured store: the shared
// component table of every adapter (see rounds.NewRun) plus the
// engine-only "run" progress component.
func (e *Engine) Snapshot(roundsDone int) (*checkpoint.Snapshot, error) {
	return e.run.Snapshot(roundsDone)
}

// Restore replays a snapshot into a freshly constructed engine, which
// must have been built with the same configuration and roster as the
// run that produced it (validated where possible: seed, strategy
// name, model architecture, vector and roster dimensions, dropout
// schedule). The next Run call continues from the snapshot's round
// and reproduces the uninterrupted run bit for bit.
func (e *Engine) Restore(snap *checkpoint.Snapshot) error {
	if e.roundsDone > 0 {
		return fmt.Errorf("fl: Restore on an engine that has already run %d rounds", e.roundsDone)
	}
	if err := e.run.Restore(snap); err != nil {
		return err
	}
	e.roundsDone = snap.Round
	return nil
}

// StartRound returns the round index the next Run call starts from
// (0 for a fresh engine, the snapshot round after Restore).
func (e *Engine) StartRound() int { return e.run.NextRound() }
