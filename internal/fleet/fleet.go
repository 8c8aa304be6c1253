// Package fleet is the longitudinal health view of a federated
// client population: where internal/telemetry records what happened in
// one round and internal/introspect exposes the scheduler's current
// decision state, fleet accumulates per-client behavior across rounds —
// rolling train-latency statistics (EWMA + P² streaming quantiles),
// participation/straggler/failure counters, a flakiness score — and
// derives fleet-level signals every round: Jain's fairness index over
// cumulative selection counts, per-cluster selection share against the
// scheduler's θ targets, and cluster centroid drift since cluster time.
//
// The registry is fed synchronously by the rounds driver (one
// ObserveRound per round, local or flnet transport alike) so its state
// is a pure deterministic function of the round history; it is a
// checkpoint.Snapshotter, and a resumed run reproduces the registry
// byte-identically. A nil *Registry is the documented "off" state and
// costs nothing on the round hot path (pinned by
// TestNilRegistryZeroAllocs), matching the nil Tracer / nil
// Saver convention used everywhere else in the repo.
package fleet

// ClientStats is the client-reported training statistics block carried
// on the flnet TrainReply wire (validated by the coordinator like the
// piggybacked TrainSpan — a malformed block is a protocol violation
// that drops the session). In the in-process engine transport no
// client self-reports, and reports reach the registry with a nil
// Stats; the registry then falls back to the simulated virtual latency
// so engine-path state stays deterministic.
type ClientStats struct {
	// TrainWallSec is the client-measured wall time of the local
	// training call, in seconds. Must be finite and non-negative.
	TrainWallSec float64
	// Samples is the number of samples processed locally. Must be
	// positive.
	Samples int
	// Loss is the client's final local training loss. Must be finite.
	Loss float64
	// Epochs is the number of local epochs run. Must be non-negative.
	Epochs int
}

// ClientReport is one reporter's contribution to a round observation.
type ClientReport struct {
	ClientID   int
	Loss       float64
	NumSamples int
	// VirtualSec is the simulated round latency the driver charged the
	// client — the latency fallback when the client sent no stats.
	VirtualSec float64
	// Stats is the client-reported block off the wire; nil on the
	// in-process transport.
	Stats *ClientStats
	// Staleness is how many model versions behind the update was when
	// the async driver buffered it; always 0 on the sync driver.
	Staleness int
}

// RoundObservation is everything the registry learns from one driver
// round. Slices are only read during ObserveRound and never retained,
// so the driver reuses its buffers across rounds.
type RoundObservation struct {
	Round    int
	Selected []int
	// Reports covers the clients whose updates made aggregation.
	Reports []ClientReport
	// Cut and Failed are the selected clients discarded mid-round — at
	// the straggler deadline (sync) or the staleness bound (async) —
	// and the ones whose transport failed.
	Cut    []int
	Failed []int
	// Async marks observations from the buffered asynchronous driver:
	// Reports are then buffered updates carrying a Staleness, and Cut
	// lists stale-dropped (not deadline-cut) clients; the registry
	// accounts them separately.
	Async bool
	// Unavailable lists the clients that were down this round (dropout
	// or marked dead after an earlier failure).
	Unavailable []int
	// RoundVirtual is the round's simulated makespan; Clock the
	// virtual clock after the round.
	RoundVirtual float64
	Clock        float64
}

// ClusterTargets is the scheduler-side cluster view the registry reads
// once per round: current membership, normalized θ target shares, and
// each cluster's centroid drift since it was formed.
//
// Contract: the member lists are immutable — the provider never writes
// a list it has handed out, it builds a new one — and disjoint; Version
// says when they changed. The registry retains the lists and rebuilds
// its per-client cluster table only when Version differs from the last
// one it saw, so a source that changes membership without changing
// Version breaks the per-cluster shares.
type ClusterTargets struct {
	// Members holds each cluster's client IDs.
	Members [][]int
	// Version changes whenever any member list does (re-clustering, a
	// client moving between clusters, a restore).
	Version uint64
	// Theta is each cluster's eq. 7 sampling weight normalized to a
	// share (sums to 1 over alive clusters).
	Theta []float64
	// Drift is the Hellinger distance between each cluster's current
	// label-distribution centroid and its centroid at cluster time.
	Drift []float64
}

// ClusterSource supplies ClusterTargets; the HACCS scheduler
// implements it. Strategies without cluster structure leave the
// registry's Source nil and the per-cluster gauges are simply absent.
type ClusterSource interface {
	FleetClusterState() ClusterTargets
}
