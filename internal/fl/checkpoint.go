package fl

import (
	"fmt"

	"haccs/internal/checkpoint"
	"haccs/internal/rounds"
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

// checkpointComponents lists every stateful layer of this run, in a
// stable naming scheme shared with the flnet coordinator ("model",
// "driver"/"driver_async", "strategy", "dropout"; "run" is
// engine-only). The async driver snapshots under its own component
// name so restoring a snapshot into an engine running the other mode
// fails loudly at the component table instead of misreading state.
func (e *Engine) checkpointComponents() []checkpoint.Component {
	comps := []checkpoint.Component{
		{Name: "run", S: engineRun{e}},
		{Name: "model", S: checkpoint.Model{Arch: e.cfg.Arch, Params: e.driver.Global, SetParams: e.driver.SetGlobal}},
		{Name: driverComponentName(e.cfg.Mode), S: e.driver},
	}
	if s, ok := e.strategy.(checkpoint.Snapshotter); ok {
		comps = append(comps, checkpoint.Component{Name: "strategy", S: s})
	}
	if l, ok := e.strategy.(checkpoint.ComponentLister); ok {
		comps = append(comps, l.ExtraComponents()...)
	}
	if d, ok := e.cfg.Dropout.(checkpoint.Snapshotter); ok {
		comps = append(comps, checkpoint.Component{Name: "dropout", S: d})
	}
	if e.cfg.Fleet != nil {
		comps = append(comps, checkpoint.Component{Name: "fleet", S: e.cfg.Fleet})
	}
	return comps
}

// driverComponentName maps the round-runtime mode to its checkpoint
// component name.
func driverComponentName(mode rounds.Mode) string {
	if mode == rounds.ModeAsync {
		return "driver_async"
	}
	return "driver"
}

// Snapshot captures the engine's complete run state after roundsDone
// completed rounds, independent of any configured store.
func (e *Engine) Snapshot(roundsDone int) (*checkpoint.Snapshot, error) {
	return checkpoint.Capture(roundsDone, e.checkpointComponents())
}

// Restore replays a snapshot into a freshly constructed engine, which
// must have been built with the same configuration and roster as the
// run that produced it (validated where possible: seed, strategy
// name, model architecture, vector and roster dimensions, dropout
// schedule). The next Run call continues from the snapshot's round
// and reproduces the uninterrupted run bit for bit.
func (e *Engine) Restore(snap *checkpoint.Snapshot) error {
	if e.roundsDone > 0 || e.startRound > 0 {
		return fmt.Errorf("fl: Restore on an engine that has already run %d rounds", e.roundsDone)
	}
	if err := snap.Restore(e.checkpointComponents()); err != nil {
		return err
	}
	e.startRound = snap.Round
	e.roundsDone = snap.Round
	return nil
}

// StartRound returns the round index the next Run call starts from
// (0 for a fresh engine, the snapshot round after Restore).
func (e *Engine) StartRound() int { return e.startRound }
