package rounds

import (
	"fmt"

	"haccs/internal/checkpoint"
)

// driverStateVersion versions the driver's gob payload.
const driverStateVersion = 1

// driverState is the round driver's serialized mutable state beyond
// the global model (which travels as its own snapshot component): the
// virtual clock and the dead-client mask. The round counter lives with
// the caller's loop and is recorded in the snapshot header; all
// per-(client, round) training randomness is derived statelessly by
// the transports, so nothing else needs to travel.
type driverState struct {
	Version int
	Clock   float64
	Dead    []bool
}

// SnapshotState implements checkpoint.Snapshotter.
func (d *Driver) SnapshotState() ([]byte, error) {
	return checkpoint.EncodeGob("rounds: driver state", driverState{
		Version: driverStateVersion,
		Clock:   d.clock,
		Dead:    append([]bool(nil), d.dead...),
	})
}

// RestoreState implements checkpoint.Snapshotter. The driver must have
// been constructed over the same roster as the run that produced the
// snapshot.
func (d *Driver) RestoreState(data []byte) error {
	var st driverState
	if err := checkpoint.DecodeGob("rounds: driver state", data, &st); err != nil {
		return err
	}
	if st.Version != driverStateVersion {
		return fmt.Errorf("rounds: driver state version %d, this build reads %d", st.Version, driverStateVersion)
	}
	return d.restoreClock("driver", st.Clock, st.Dead)
}
