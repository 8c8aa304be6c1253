package rounds

import (
	"haccs/internal/fleet"
	"haccs/internal/simnet"
	"haccs/internal/telemetry"
)

// Strategy is the selection surface the driver needs each round.
// fl.Strategy is a structural superset (it adds Name and Init), so any
// initialized fl.Strategy — including the HACCS scheduler — satisfies
// this interface directly; the adapter that builds the driver is
// responsible for calling Init first.
type Strategy interface {
	// Select returns up to k client IDs to train this round, drawn only
	// from clients whose availability flag is true. Returning fewer
	// than k (even zero) is allowed.
	Select(round int, available []bool, k int) []int
	// Update reports the reporters of the round — the selected clients
	// whose updates were aggregated — and their losses, in selection
	// order. Cut stragglers and failed clients are omitted.
	Update(round int, selected []int, losses []float64)
}

// Config parameterizes the round driver.
type Config struct {
	// ClientsPerRound is the selection budget k.
	ClientsPerRound int
	// Deadline is the virtual-time round deadline in seconds: selected
	// clients whose expected latency exceeds it are cut as stragglers
	// and their updates discarded (partial FedAvg over the reporters,
	// renormalized by NumSamples). 0 disables the cutoff, making the
	// round fully synchronous — it then lasts as long as its slowest
	// participant.
	Deadline float64
	// Dropout injects per-round unavailability (nil = no dropout).
	Dropout simnet.DropoutModel
	// Tracer receives the structured round-trace event stream; nil
	// disables tracing. Implementations must tolerate concurrent Emit
	// calls (client-trained events come from worker goroutines).
	Tracer telemetry.Tracer
	// Spans, when non-nil, times every phase of the round lifecycle
	// (availability → select → dispatch → per-client train → collect →
	// aggregate → update) as a span tree rooted at the round span. The
	// per-client train span's context is handed to Proxy.Train so
	// network transports can propagate it on the wire. A nil tracer
	// costs nothing (zero-alloc, pinned by benchmark).
	Spans *telemetry.SpanTracer
	// Metrics, when non-nil, receives the driver's counters, gauges
	// and histograms (see DESIGN.md "Observability").
	Metrics *telemetry.Registry
	// OnSummary, when non-nil, receives refreshed client summaries
	// piggybacked on training replies (Result.Summary), after
	// aggregation and before Strategy.Update — the hook the HACCS
	// scheduler's re-clustering consumes.
	OnSummary func(clientID int, labelCounts []float64)
	// Fleet, when non-nil, receives one RoundObservation at the end of
	// every round (including empty-selection retry rounds), feeding the
	// per-client health registry. A nil registry costs nothing
	// (zero-alloc, pinned by fleet.TestNilRegistryZeroAllocs).
	Fleet *fleet.Registry
}

// Outcome describes one completed round. The Reporters, Cut, Failed
// and Losses slices are driver-owned and valid until the next RunRound
// call; Selected is the strategy's own slice.
type Outcome struct {
	// Selected is the strategy's selection in selection order (nil
	// when nothing was available).
	Selected []int
	// Reporters are the selected clients whose updates were
	// aggregated, in selection order.
	Reporters []int
	// Losses are the reporters' training losses, in selection order.
	Losses []float64
	// Cut are the selected clients discarded at the deadline.
	Cut []int
	// Failed are the selected clients whose transport died mid-round;
	// they are marked dead and never selected again.
	Failed []int
	// RoundVirtual is the round's virtual duration in seconds.
	RoundVirtual float64
	// Aggregated reports whether any update was folded into the global
	// model this round.
	Aggregated bool
}

// Driver is the synchronous round runtime over one Transport: the
// shared sync round (roundCore.syncRound) with the flat leg — fanOut to
// every selected client, FedAvg over the reporters. It is not safe for
// concurrent use; rounds run one at a time.
type Driver struct {
	roundCore
}

// NewDriver builds a driver over the transport. initial is the global
// parameter vector; the driver takes ownership and aggregates into it.
// The strategy must already be initialized (Init called with the
// roster) by the adapter constructing the driver.
func NewDriver(cfg Config, t Transport, strategy Strategy, initial []float64) *Driver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Driver{roundCore: newProxyCore(cfg, t, strategy, initial, true)}
	d.sink = func(slot int, res Result) { d.results[slot] = res }
	return d
}

// RunRound executes one full round: availability masking, strategy
// selection, dispatch, collection with the deadline cutoff, partial
// FedAvg over the reporters, telemetry, summary forwarding, and loss
// feedback to the strategy. With Config.Spans set, every phase is
// timed under one round-rooted span tree.
func (d *Driver) RunRound(round int) Outcome { return d.syncRound(round, d) }

// dispatch and aggregate are the flat leg: every selected client trains
// in parallel, and FedAvg folds the reporters' parameters in.
func (d *Driver) dispatch(round int, selected []int, span telemetry.Span) []bool {
	d.fanOut(round, selected, span)
	return nil
}

func (d *Driver) aggregate(int) {
	if len(d.reps) > 0 {
		FedAvgInto(d.global, d.reps)
	}
}
