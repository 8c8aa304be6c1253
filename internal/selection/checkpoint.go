package selection

// Checkpoint support: each baseline strategy serializes exactly its
// mutable state (the structures Init derives deterministically from
// the roster — tiers, latencies, preferred durations — are rebuilt by
// Init and validated against on restore). The contract is
// restore-after-Init: RestoreState may only be called on a strategy
// whose Init ran with the same roster as the run that produced the
// snapshot, and it continues the RNG stream exactly where the snapshot
// captured it, making resumed selection sequences bit-identical.

import (
	"errors"
	"fmt"

	"haccs/internal/checkpoint"
	"haccs/internal/stats"
)

// stateVersion versions the per-strategy gob payloads.
const stateVersion = 1

// randomState is Random's serialized mutable state.
type randomState struct {
	Version int
	RNG     stats.RNGState
}

// SnapshotState implements checkpoint.Snapshotter.
func (r *Random) SnapshotState() ([]byte, error) {
	if r.rng == nil {
		return nil, errors.New("selection: Random not initialized")
	}
	return checkpoint.EncodeGob("selection: strategy state", randomState{Version: stateVersion, RNG: r.rng.State()})
}

// RestoreState implements checkpoint.Snapshotter (restore-after-Init).
func (r *Random) RestoreState(data []byte) error {
	if r.rng == nil {
		return errors.New("selection: Random not initialized")
	}
	var st randomState
	if err := checkpoint.DecodeGob("selection: strategy state", data, &st); err != nil {
		return err
	}
	if err := checkVersion("Random", st.Version); err != nil {
		return err
	}
	r.rng.SetState(st.RNG)
	return nil
}

// tiflState is TiFL's serialized mutable state; tier structure is
// rebuilt by Init from the roster.
type tiflState struct {
	Version  int
	RNG      stats.RNGState
	Credits  []int
	LastLoss []float64
}

// SnapshotState implements checkpoint.Snapshotter.
func (t *TiFL) SnapshotState() ([]byte, error) {
	if t.rng == nil {
		return nil, errors.New("selection: TiFL not initialized")
	}
	return checkpoint.EncodeGob("selection: strategy state", tiflState{
		Version:  stateVersion,
		RNG:      t.rng.State(),
		Credits:  append([]int(nil), t.credits...),
		LastLoss: append([]float64(nil), t.lastLoss...),
	})
}

// RestoreState implements checkpoint.Snapshotter (restore-after-Init).
func (t *TiFL) RestoreState(data []byte) error {
	if t.rng == nil {
		return errors.New("selection: TiFL not initialized")
	}
	var st tiflState
	if err := checkpoint.DecodeGob("selection: strategy state", data, &st); err != nil {
		return err
	}
	if err := checkVersion("TiFL", st.Version); err != nil {
		return err
	}
	if len(st.Credits) != len(t.credits) || len(st.LastLoss) != len(t.lastLoss) {
		return fmt.Errorf("selection: TiFL snapshot for %d tiers/%d clients, strategy has %d/%d",
			len(st.Credits), len(st.LastLoss), len(t.credits), len(t.lastLoss))
	}
	copy(t.credits, st.Credits)
	copy(t.lastLoss, st.LastLoss)
	t.rng.SetState(st.RNG)
	return nil
}

// oortState is Oort's serialized mutable state; latencies, sample
// counts and the preferred duration are rebuilt by Init.
type oortState struct {
	Version  int
	RNG      stats.RNGState
	LastLoss []float64
	Explored []bool
	Epsilon  float64
}

// SnapshotState implements checkpoint.Snapshotter.
func (o *Oort) SnapshotState() ([]byte, error) {
	if o.rng == nil {
		return nil, errors.New("selection: Oort not initialized")
	}
	return checkpoint.EncodeGob("selection: strategy state", oortState{
		Version:  stateVersion,
		RNG:      o.rng.State(),
		LastLoss: append([]float64(nil), o.lastLoss...),
		Explored: append([]bool(nil), o.explored...),
		Epsilon:  o.epsilon,
	})
}

// RestoreState implements checkpoint.Snapshotter (restore-after-Init).
func (o *Oort) RestoreState(data []byte) error {
	if o.rng == nil {
		return errors.New("selection: Oort not initialized")
	}
	var st oortState
	if err := checkpoint.DecodeGob("selection: strategy state", data, &st); err != nil {
		return err
	}
	if err := checkVersion("Oort", st.Version); err != nil {
		return err
	}
	if len(st.LastLoss) != len(o.lastLoss) || len(st.Explored) != len(o.explored) {
		return fmt.Errorf("selection: Oort snapshot for %d clients, strategy has %d", len(st.LastLoss), len(o.lastLoss))
	}
	copy(o.lastLoss, st.LastLoss)
	copy(o.explored, st.Explored)
	o.epsilon = st.Epsilon
	o.rng.SetState(st.RNG)
	return nil
}

// checkVersion rejects payloads from a different state layout.
func checkVersion(who string, got int) error {
	if got != stateVersion {
		return fmt.Errorf("selection: %s state version %d, this build reads %d", who, got, stateVersion)
	}
	return nil
}
