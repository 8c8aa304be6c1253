package core

import (
	"errors"
	"fmt"

	"haccs/internal/checkpoint"
	"haccs/internal/stats"
)

// schedulerStateVersion versions the scheduler's gob payload. Version 2
// added the per-cluster baseline centroids behind the fleet drift gauge.
const schedulerStateVersion = 2

// schedulerState is the HACCS scheduler's serialized mutable state:
// the Weighted-SRSWR RNG stream, every client's last observed loss
// (the ACL inputs), the cluster assignment in force when the snapshot
// was taken, and the label-distribution centroids captured at cluster
// time. Latencies and summaries are rebuilt by Init; the labels and
// baselines are restored rather than re-derived so a snapshot taken
// after a §IV-C UpdateSummaries re-clustering resumes with the same
// clusters — and the same drift reference — the interrupted run was
// scheduling over.
type schedulerState struct {
	Version   int
	RNG       stats.RNGState
	LastLoss  []float64
	Labels    []int
	Baselines [][]float64
}

// SnapshotState implements checkpoint.Snapshotter.
func (s *Scheduler) SnapshotState() ([]byte, error) {
	if s.rng == nil {
		return nil, errors.New("core: scheduler not initialized")
	}
	s.mu.Lock()
	labels := append([]int(nil), s.labels...)
	baselines := make([][]float64, len(s.baseline))
	for i, b := range s.baseline {
		baselines[i] = append([]float64(nil), b...)
	}
	s.mu.Unlock()
	st := schedulerState{
		Version:   schedulerStateVersion,
		RNG:       s.rng.State(),
		LastLoss:  append([]float64(nil), s.lastLoss...),
		Labels:    labels,
		Baselines: baselines,
	}
	return checkpoint.EncodeGob("core: scheduler state", st)
}

// RestoreState implements checkpoint.Snapshotter (restore-after-Init:
// Init must have run with the same roster and summaries as the run
// that produced the snapshot).
func (s *Scheduler) RestoreState(data []byte) error {
	if s.rng == nil {
		return errors.New("core: scheduler not initialized")
	}
	var st schedulerState
	if err := checkpoint.DecodeGob("core: scheduler state", data, &st); err != nil {
		return err
	}
	if st.Version != schedulerStateVersion {
		return fmt.Errorf("core: scheduler state version %d, this build reads %d", st.Version, schedulerStateVersion)
	}
	if len(st.LastLoss) != len(s.lastLoss) || len(st.Labels) != len(s.summaries) {
		return fmt.Errorf("core: scheduler snapshot for %d clients, scheduler has %d", len(st.Labels), len(s.summaries))
	}
	for _, l := range st.Labels {
		if l < 0 {
			return fmt.Errorf("core: scheduler snapshot carries cluster label %d", l)
		}
	}
	copy(s.lastLoss, st.LastLoss)
	s.mu.Lock()
	s.labels = append(s.labels[:0], st.Labels...)
	// Summaries are not checkpointed, so neither are the running sums:
	// they are recomputed here from the summaries Init was given, and
	// integer sums recomputed equal the integer sums the interrupted run
	// maintained.
	s.rebuildLocked(nil)
	s.setBaselinesLocked(st.Baselines)
	s.mu.Unlock()
	s.rng.SetState(st.RNG)
	return nil
}
