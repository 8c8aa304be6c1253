package fleet

import (
	"fmt"

	"haccs/internal/checkpoint"
)

// The registry checkpoints itself the same way the rounds driver does:
// a versioned gob payload of every field that feeds future
// observations. Because ObserveRound is deterministic in the round
// history and the P² estimators serialize their full marker state, a
// restored registry continues byte-identically to an uninterrupted one
// (pinned by the experiments resume test).

// registryStateVersion tags the snapshot payload layout. Version 2
// added the async-driver accounting (per-client buffered/staleness
// counters in clientHealth plus the fleet-wide staleness histogram).
const registryStateVersion = 2

// registryState is the serialized form of a Registry.
type registryState struct {
	Version         int
	Rounds          int
	Clock           float64
	TotalSelected   int
	Fairness        float64
	Clients         []clientHealth
	Clusters        []clusterHealth
	AsyncRounds     int
	StaleDropped    int
	StalenessCounts []int
}

// SnapshotState implements checkpoint.Snapshotter.
func (r *Registry) SnapshotState() ([]byte, error) {
	r.mu.Lock()
	st := registryState{
		Version:         registryStateVersion,
		Rounds:          r.rounds,
		Clock:           r.clock,
		TotalSelected:   r.totalSelected,
		Fairness:        r.fairness,
		Clients:         append([]clientHealth(nil), r.clients...),
		Clusters:        append([]clusterHealth(nil), r.clusters...), // member lists are immutable: shared
		AsyncRounds:     r.asyncRounds,
		StaleDropped:    r.staleDropped,
		StalenessCounts: append([]int(nil), r.stalenessCounts[:]...),
	}
	r.mu.Unlock()
	return checkpoint.EncodeGob("fleet: registry state", st)
}

// RestoreState implements checkpoint.Snapshotter. The receiver must
// have been built for the same roster size as the snapshot.
func (r *Registry) RestoreState(data []byte) error {
	var st registryState
	if err := checkpoint.DecodeGob("fleet: registry state", data, &st); err != nil {
		return err
	}
	if st.Version != registryStateVersion {
		return fmt.Errorf("fleet: restore: snapshot version %d, want %d", st.Version, registryStateVersion)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(st.Clients) != len(r.clients) {
		return fmt.Errorf("fleet: restore: snapshot has %d clients, registry %d", len(st.Clients), len(r.clients))
	}
	if len(st.StalenessCounts) != stalenessBuckets {
		return fmt.Errorf("fleet: restore: snapshot has %d staleness buckets, this build uses %d", len(st.StalenessCounts), stalenessBuckets)
	}
	r.rounds = st.Rounds
	r.clock = st.Clock
	r.totalSelected = st.TotalSelected
	r.fairness = st.Fairness
	copy(r.clients, st.Clients)
	// Σx² is not in the payload (registryStateVersion is unchanged); it
	// is recomputed once here, and the cluster table on the next round.
	r.selectedSq = 0
	for i := range r.clients {
		r.selectedSq += r.clients[i].Selected * r.clients[i].Selected
	}
	r.viewKnown = false
	r.clusters = st.Clusters
	r.asyncRounds = st.AsyncRounds
	r.staleDropped = st.StaleDropped
	copy(r.stalenessCounts[:], st.StalenessCounts)
	return nil
}
