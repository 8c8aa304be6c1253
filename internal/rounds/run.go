package rounds

import (
	"fmt"
	"sync/atomic"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/nn"
	"haccs/internal/telemetry"
)

// NewRunner builds the flat round runtime mode selects — the barrier
// Driver or the buffered AsyncDriver — after the matching validation.
// An invalid configuration comes back as the typed error (wrapping one
// of the Err* values): the TCP coordinator returns it to its caller,
// the in-process engine panics with it.
func NewRunner(mode Mode, cfg Config, async AsyncConfig, t Transport, strategy Strategy, initial []float64) (Runner, error) {
	if mode == ModeAsync {
		if err := ValidateAsync(cfg, async); err != nil {
			return nil, err
		}
		return NewAsyncDriver(cfg, async, t, strategy, initial), nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewDriver(cfg, t, strategy, initial), nil
}

// Run is the run assembly every adapter holds around its Runner: the
// checkpoint component table, the saver, where a restored run
// continues, and the step that closes a round. flnet.Coordinator and
// shard.Root embed it, so its methods are their run methods; fl.Engine
// wraps it, because an engine round ends with an evaluation.
type Run struct {
	runner Runner
	comps  []checkpoint.Component
	saver  *checkpoint.Saver
	tracer telemetry.Tracer
	reg    *telemetry.Registry
	// next is atomic because the shard root's admission loop reads it
	// (an Ack's NextRound) while the run's own goroutine restores.
	next atomic.Int64
}

// NewRun assembles the run around runner. The component table lists
// every stateful layer under names all adapters share, so tooling reads
// any adapter's snapshots: own (the adapter's private components, e.g.
// the engine's "run"), then "model", the runner under a name that
// marks its runtime ("driver", "driver_async", "driver_hier" — a
// snapshot restored into the wrong runtime fails loudly at the table
// instead of misreading state), "strategy" plus its ExtraComponents and
// "dropout" when they snapshot, and "fleet" when set. cfg is the
// runner's Config; arch stamps the model component (the zero value
// reduces restore validation to the parameter count). A nil store
// turns saving off; every <= 0 saves each round.
func NewRun(runner Runner, cfg Config, strategy Strategy, arch nn.Arch, store *checkpoint.Store, every int, own ...checkpoint.Component) *Run {
	driver := "driver"
	switch runner.(type) {
	case *AsyncDriver:
		driver = "driver_async"
	case *HierDriver:
		driver = "driver_hier"
	}
	comps := append(own,
		checkpoint.Component{Name: checkpoint.ModelComponent, S: checkpoint.Model{Arch: arch, Params: runner.Global, SetParams: runner.SetGlobal}},
		checkpoint.Component{Name: driver, S: runner},
	)
	if s, ok := strategy.(checkpoint.Snapshotter); ok {
		comps = append(comps, checkpoint.Component{Name: "strategy", S: s})
	}
	if l, ok := strategy.(checkpoint.ComponentLister); ok {
		comps = append(comps, l.ExtraComponents()...)
	}
	if d, ok := cfg.Dropout.(checkpoint.Snapshotter); ok {
		comps = append(comps, checkpoint.Component{Name: "dropout", S: d})
	}
	if cfg.Fleet != nil {
		comps = append(comps, checkpoint.Component{Name: "fleet", S: cfg.Fleet})
	}
	return &Run{
		runner: runner,
		comps:  comps,
		saver:  checkpoint.NewSaver(store, every, comps, cfg.Tracer, cfg.Spans, cfg.Metrics),
		tracer: cfg.Tracer,
		reg:    cfg.Metrics,
	}
}

// Runner exposes the round runtime — callers that need mode-specific
// surfaces (the async driver's introspection state, for example)
// type-assert on the returned value.
func (r *Run) Runner() Runner { return r.runner }

// Global returns the runner-owned global parameter vector (read-only;
// overwritten by aggregation each round).
func (r *Run) Global() []float64 { return r.runner.Global() }

// Clock returns the virtual time elapsed across the run's rounds.
func (r *Run) Clock() float64 { return r.runner.Clock() }

// Snapshot captures the run state after roundsDone completed rounds,
// independent of any configured store.
func (r *Run) Snapshot(roundsDone int) (*checkpoint.Snapshot, error) {
	return checkpoint.Capture(roundsDone, r.comps)
}

// Restore replays a snapshot into a freshly assembled run — same
// strategy (constructed and Init-ed over the same roster), same model
// dimensions as the run that took it, validated per component where
// possible. NextRound then reports where the round sequence continues.
// Restart recipe for a network adapter: bring up a new server, let the
// peers re-register under their old IDs, rebuild the strategy and the
// adapter, then Restore(store.LoadLatest()).
func (r *Run) Restore(snap *checkpoint.Snapshot) error {
	if err := snap.Restore(r.comps); err != nil {
		return err
	}
	r.next.Store(int64(snap.Round))
	return nil
}

// NextRound returns the round index to continue from: 0 on a fresh
// run, the snapshot round after Restore.
func (r *Run) NextRound() int { return int(r.next.Load()) }

// AfterRound closes a round: it persists a snapshot when roundsDone
// hits the cadence. A save failure panics — a run that was promised
// durability must not continue silently without it.
func (r *Run) AfterRound(roundsDone int) {
	if _, err := r.saver.MaybeSave(roundsDone); err != nil {
		panic(fmt.Sprintf("rounds: checkpoint save after round %d: %v", roundsDone, err))
	}
}

// RunRound is one round of a network adapter (the engine, whose round
// ends with its evaluation, drives its runner itself and calls
// AfterRound): the runner's round timed on the wall clock, the
// coordinator-level NetRound event and haccs_net_* series on top of
// the driver's own, then AfterRound. See Outcome for buffer lifetimes.
func (r *Run) RunRound(round int) Outcome {
	start := time.Now()
	out := r.runner.RunRound(round)
	wall := time.Since(start).Seconds()
	if r.tracer != nil {
		r.tracer.Emit(telemetry.NetRound(round, append([]int(nil), out.Selected...), wall))
	}
	if r.reg != nil {
		r.reg.Counter("haccs_net_rounds_total", "Coordinator rounds completed.").Inc()
		r.reg.Histogram("haccs_net_round_seconds", "Wall-clock duration of one coordinator round (push + all replies).", nil).Observe(wall)
	}
	r.AfterRound(round + 1)
	return out
}
