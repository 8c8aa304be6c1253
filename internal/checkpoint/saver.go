package checkpoint

import (
	"time"

	"haccs/internal/telemetry"
)

// SecondsBuckets cover checkpoint save durations: sub-ms in-memory
// encodes up to seconds for paper-scale models on slow disks.
var SecondsBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Saver bundles a Store with a component list, a cadence, and the
// telemetry that reports every save: a "checkpoint" span, the
// haccs_checkpoint_* metrics, and a checkpoint_saved trace event.
//
// A nil *Saver is the documented "checkpointing off" state: MaybeSave
// on a nil receiver returns immediately without allocating, so the
// round hot path pays one branch when the feature is disabled (pinned
// by TestNilSaverZeroAllocs).
type Saver struct {
	store  *Store
	every  int
	comps  []Component
	tracer telemetry.Tracer
	spans  *telemetry.SpanTracer

	bytes   *telemetry.Gauge
	seconds *telemetry.Histogram
}

// NewSaver builds a saver over the store (nil store returns a nil
// saver — checkpointing off). every is the cadence in rounds (<= 0
// saves every round). tracer, spans and reg may each be nil.
func NewSaver(store *Store, every int, comps []Component, tracer telemetry.Tracer, spans *telemetry.SpanTracer, reg *telemetry.Registry) *Saver {
	if store == nil {
		return nil
	}
	if every <= 0 {
		every = 1
	}
	s := &Saver{store: store, every: every, comps: comps, tracer: tracer, spans: spans}
	if reg != nil {
		s.bytes = reg.Gauge("haccs_checkpoint_bytes", "Encoded size of the last run-state snapshot written.")
		s.seconds = reg.Histogram("haccs_checkpoint_seconds", "Wall-clock duration of one snapshot capture + durable write.", SecondsBuckets)
	}
	return s
}

// MaybeSave persists a snapshot when roundsDone is a positive multiple
// of the cadence, reporting whether a save happened. On a nil receiver
// it is a zero-allocation no-op.
func (s *Saver) MaybeSave(roundsDone int) (bool, error) {
	if s == nil || roundsDone <= 0 || roundsDone%s.every != 0 {
		return false, nil
	}
	return true, s.Save(roundsDone)
}

// Save captures and durably persists a snapshot after roundsDone
// completed rounds, regardless of cadence.
func (s *Saver) Save(roundsDone int) error {
	sp := s.spans.Root("checkpoint", roundsDone)
	defer sp.End()
	start := time.Now()
	snap, err := Capture(roundsDone, s.comps)
	if err != nil {
		return err
	}
	n, err := s.store.Save(snap)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if s.tracer != nil {
		s.tracer.Emit(telemetry.CheckpointSaved(roundsDone, n, wall, s.store.Dir()))
	}
	if s.bytes != nil {
		s.bytes.Set(float64(n))
		s.seconds.Observe(wall)
	}
	return nil
}
