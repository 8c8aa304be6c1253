package telemetry

// The round trace is a structured event stream: one typed event per
// scheduler/engine decision, emitted through the Tracer interface. A
// nil Tracer is the documented "off" state — every instrumentation
// site guards with `if tracer != nil`, so the fast path costs one
// predictable branch (see BenchmarkEngineRun_NilTelemetry).

// Event kinds. The set (and the fields each kind fills) is part of the
// documented observability contract — see DESIGN.md "Observability".
const (
	// KindRoundStart opens a round: Round.
	KindRoundStart = "round_start"
	// KindUnavailable reports the clients dropped out this round:
	// Round, Clients.
	KindUnavailable = "unavailable"
	// KindClusterSampled is one Weighted-SRSWR draw by the HACCS
	// scheduler: Round, Cluster, Theta, Tau, ACL, ACLShare.
	KindClusterSampled = "cluster_sampled"
	// KindClientPicked is the device chosen within a sampled cluster:
	// Round, Cluster, Client, Latency.
	KindClientPicked = "client_picked"
	// KindSelection is the engine-level view of the full round
	// selection: Round, Clients (selection order).
	KindSelection = "selection"
	// KindClientTrained is one finished local training job: Round,
	// Client, Loss, NumSamples, WallSec (host time), VirtualSec
	// (simulated round latency).
	KindClientTrained = "client_trained"
	// KindAggregated closes the FedAvg step: Round, Clients (count via
	// len), VirtualSec (round makespan), Clock.
	KindAggregated = "aggregated"
	// KindEvaluated is a global-model evaluation: Round, Acc, Loss,
	// Clock.
	KindEvaluated = "evaluated"
	// KindReclustered reports a (re-)clustering pass: Clusters,
	// WallSec. Round is -1 for the Init-time pass.
	KindReclustered = "reclustered"
	// KindNetRound is one flnet coordinator round completing: Round,
	// Clients, WallSec.
	KindNetRound = "net_round"
	// KindStragglerCut reports the selected clients whose updates were
	// discarded at the round deadline: Round, Clients (cut, selection
	// order), VirtualSec (the deadline).
	KindStragglerCut = "straggler_cut"
	// KindClientFailed reports selected clients whose transport failed
	// mid-round (disconnect, protocol violation); they are excluded
	// from aggregation and marked dead for future rounds: Round,
	// Clients.
	KindClientFailed = "client_failed"
	// KindSpan is one completed timed span of the round lifecycle:
	// Span (name), TraceID, SpanID, ParentID (absent for roots), Round,
	// Client (-1 unless client-scoped), StartSec (host seconds since
	// the tracer started; -1 for foreign spans shipped over the wire),
	// WallSec (duration).
	KindSpan = "span"
	// KindClusterState is the per-round introspection record of one
	// cluster's live scheduling state: Round, Cluster, Theta, Tau, ACL,
	// ACLShare, Clients (member IDs). Emitted once per cluster per
	// Select call, it is the flight-recorder form of /debug/selection.
	KindClusterState = "cluster_state"
	// KindCheckpointSaved reports one durable run-state snapshot
	// reaching disk: Round (rounds completed at capture), Bytes
	// (encoded snapshot size), WallSec (capture + write duration), Path
	// (the store directory).
	KindCheckpointSaved = "checkpoint_saved"
	// KindUpdateBuffered is one client update landing in the async
	// aggregation buffer: Round (the scheduling cycle that popped it),
	// Client, Staleness (model versions behind at buffering time), Fill
	// (buffer occupancy after the insert), Clock.
	KindUpdateBuffered = "update_buffered"
	// KindUpdateStale is one client update discarded because its
	// staleness exceeded the async driver's bound: Round, Client,
	// Staleness, Clock.
	KindUpdateStale = "update_stale"
	// KindAggregateAsync closes one buffered aggregation: Round,
	// Clients (buffer order), Fill (updates folded), Staleness (the
	// maximum staleness in the buffer), VirtualSec (the cycle's virtual
	// duration), Clock.
	KindAggregateAsync = "aggregate_async"
	// KindShardReport is one shard's contribution arriving at the root
	// aggregator: Round, Shard, Clients (the shard's reporters in
	// selection order), NumSamples (the partial aggregate's total sample
	// weight), WallSec (the shard round-trip as seen by the root),
	// Staleness (async: root versions behind at merge time), Clock (the
	// shard's local virtual clock).
	KindShardReport = "shard_report"
	// KindShardMerge closes one hierarchical aggregation at the root:
	// Round, Fill (shards folded), NumSamples (total sample weight),
	// WallSec (root aggregation seconds), Clock (root virtual clock
	// after the merge).
	KindShardMerge = "shard_merge"
	// KindShardFailed reports a whole-shard round-trip failure: Round,
	// Shard, Clients (the shard's selected clients whose updates were
	// discarded this round; they stay alive, unlike transport-failed
	// clients).
	KindShardFailed = "shard_failed"
	// KindFleetHealth is the per-round fleet registry reading. The
	// fleet-level record (Cluster -1) carries Fairness (Jain's index
	// over cumulative selection counts) and Clock; the per-cluster
	// records (Cluster >= 0) carry Share (the cluster's cumulative
	// selection share), Theta (the scheduler's normalized θ target
	// share) and Drift (Hellinger distance of the cluster's current
	// label-distribution centroid from its centroid at cluster time).
	KindFleetHealth = "fleet_health"
)

// Event is one record in the round trace. It is a flat union: Kind
// says which fields are meaningful (documented on the Kind*
// constants). Index fields that may legitimately be zero (Cluster,
// Client) use -1 for "not applicable" so the JSONL form stays
// round-trippable without pointer fields.
type Event struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`

	Cluster int   `json:"cluster"`
	Client  int   `json:"client"`
	Shard   int   `json:"shard"`
	Clients []int `json:"clients,omitempty"`

	// Theta = Rho*Tau + (1-Rho)*ACLShare is the eq. 7 cluster sampling
	// weight; Tau is the latency term, ACL the average cluster loss,
	// ACLShare its normalized share.
	Theta    float64 `json:"theta,omitempty"`
	Tau      float64 `json:"tau,omitempty"`
	ACL      float64 `json:"acl,omitempty"`
	ACLShare float64 `json:"acl_share,omitempty"`

	Latency    float64 `json:"latency,omitempty"`     // virtual seconds
	WallSec    float64 `json:"wall_sec,omitempty"`    // host seconds
	VirtualSec float64 `json:"virtual_sec,omitempty"` // simulated seconds
	Clock      float64 `json:"clock,omitempty"`       // virtual clock after the step

	Loss       float64 `json:"loss,omitempty"`
	Acc        float64 `json:"acc,omitempty"`
	NumSamples int     `json:"num_samples,omitempty"`
	Clusters   int     `json:"clusters,omitempty"`

	// Checkpoint fields (KindCheckpointSaved): the encoded snapshot
	// size and the store directory it landed in.
	Bytes int    `json:"bytes,omitempty"`
	Path  string `json:"path,omitempty"`

	// Span fields (KindSpan): the span name and its hex-rendered
	// trace/span/parent IDs (see FormatSpanID). StartSec is the span's
	// start offset in host seconds since its tracer was constructed, or
	// -1 for foreign spans whose clock is not comparable.
	Span     string  `json:"span,omitempty"`
	TraceID  string  `json:"trace_id,omitempty"`
	SpanID   string  `json:"span_id,omitempty"`
	ParentID string  `json:"parent_id,omitempty"`
	StartSec float64 `json:"start_sec,omitempty"`

	// Async fields (KindUpdateBuffered, KindUpdateStale,
	// KindAggregateAsync): the update's staleness in model versions and
	// the aggregation-buffer occupancy after the step.
	Staleness int `json:"staleness,omitempty"`
	Fill      int `json:"fill,omitempty"`

	// Reason is the human-readable rationale attached to a decision
	// event (KindClientPicked: the intra-cluster policy that chose the
	// device).
	Reason string `json:"reason,omitempty"`

	// Fleet health fields (KindFleetHealth): Jain's fairness index over
	// cumulative selection counts (fleet-level record), one cluster's
	// cumulative selection share, and its centroid drift since cluster
	// time (per-cluster records).
	Fairness float64 `json:"fairness,omitempty"`
	Share    float64 `json:"share,omitempty"`
	Drift    float64 `json:"drift,omitempty"`
}

// newEvent returns an event with the index fields neutralized.
func newEvent(kind string, round int) Event {
	return Event{Kind: kind, Round: round, Cluster: -1, Client: -1, Shard: -1}
}

// RoundStart builds a round-opening event.
func RoundStart(round int) Event { return newEvent(KindRoundStart, round) }

// Unavailable builds a dropout event listing the unavailable clients.
func Unavailable(round int, clients []int) Event {
	e := newEvent(KindUnavailable, round)
	e.Clients = clients
	return e
}

// ClusterSampled builds one SRSWR draw event with the eq. 7 weight
// decomposition.
func ClusterSampled(round, cluster int, theta, tau, acl, aclShare float64) Event {
	e := newEvent(KindClusterSampled, round)
	e.Cluster = cluster
	e.Theta, e.Tau, e.ACL, e.ACLShare = theta, tau, acl, aclShare
	return e
}

// ClientPicked builds an intra-cluster device choice event; reason
// names the policy that made the pick (e.g. "fastest", "weighted").
func ClientPicked(round, cluster, client int, latency float64, reason string) Event {
	e := newEvent(KindClientPicked, round)
	e.Cluster, e.Client, e.Latency = cluster, client, latency
	e.Reason = reason
	return e
}

// Selection builds the engine-level whole-round selection event.
func Selection(round int, clients []int) Event {
	e := newEvent(KindSelection, round)
	e.Clients = clients
	return e
}

// ClientTrained builds a local-training completion event.
func ClientTrained(round, client int, loss float64, numSamples int, wallSec, virtualSec float64) Event {
	e := newEvent(KindClientTrained, round)
	e.Client = client
	e.Loss, e.NumSamples, e.WallSec, e.VirtualSec = loss, numSamples, wallSec, virtualSec
	return e
}

// Aggregated builds the FedAvg completion event.
func Aggregated(round int, clients []int, roundVirtualSec, clock float64) Event {
	e := newEvent(KindAggregated, round)
	e.Clients = clients
	e.VirtualSec, e.Clock = roundVirtualSec, clock
	return e
}

// Evaluated builds a global evaluation event.
func Evaluated(round int, acc, loss, clock float64) Event {
	e := newEvent(KindEvaluated, round)
	e.Acc, e.Loss, e.Clock = acc, loss, clock
	return e
}

// Reclustered builds a clustering-pass event (round -1 = Init).
func Reclustered(round, clusters int, wallSec float64) Event {
	e := newEvent(KindReclustered, round)
	e.Clusters, e.WallSec = clusters, wallSec
	return e
}

// NetRound builds a coordinator round-completion event.
func NetRound(round int, clients []int, wallSec float64) Event {
	e := newEvent(KindNetRound, round)
	e.Clients, e.WallSec = clients, wallSec
	return e
}

// StragglerCut builds a deadline-cutoff event listing the clients whose
// updates were discarded.
func StragglerCut(round int, clients []int, deadline float64) Event {
	e := newEvent(KindStragglerCut, round)
	e.Clients, e.VirtualSec = clients, deadline
	return e
}

// ClientFailed builds a transport-failure event listing the clients that
// died mid-round.
func ClientFailed(round int, clients []int) Event {
	e := newEvent(KindClientFailed, round)
	e.Clients = clients
	return e
}

// SpanEnded builds a completed-span event. parent 0 marks a trace
// root; startSec -1 marks a foreign span with an incomparable clock.
func SpanEnded(name string, trace, span, parent uint64, round, client int, startSec, durSec float64) Event {
	e := newEvent(KindSpan, round)
	e.Span = name
	e.TraceID = FormatSpanID(trace)
	e.SpanID = FormatSpanID(span)
	if parent != 0 {
		e.ParentID = FormatSpanID(parent)
	}
	e.Client = client
	e.StartSec = startSec
	e.WallSec = durSec
	return e
}

// ClusterState builds the per-round introspection record of one
// cluster's scheduling state. members is retained by the event — pass a
// copy or a list that is never written again.
func ClusterState(round, cluster int, theta, tau, acl, aclShare float64, members []int) Event {
	e := newEvent(KindClusterState, round)
	e.Cluster = cluster
	e.Theta, e.Tau, e.ACL, e.ACLShare = theta, tau, acl, aclShare
	e.Clients = members
	return e
}

// CheckpointSaved builds a snapshot-persisted event. round is the
// number of rounds completed at capture time.
func CheckpointSaved(round, bytes int, wallSec float64, path string) Event {
	e := newEvent(KindCheckpointSaved, round)
	e.Bytes, e.WallSec, e.Path = bytes, wallSec, path
	return e
}

// UpdateBuffered builds an async buffer-insert event.
func UpdateBuffered(round, client, staleness, fill int, clock float64) Event {
	e := newEvent(KindUpdateBuffered, round)
	e.Client = client
	e.Staleness, e.Fill = staleness, fill
	e.Clock = clock
	return e
}

// UpdateStale builds an async stale-drop event for an update whose
// staleness exceeded the configured bound.
func UpdateStale(round, client, staleness int, clock float64) Event {
	e := newEvent(KindUpdateStale, round)
	e.Client = client
	e.Staleness = staleness
	e.Clock = clock
	return e
}

// AggregateAsync builds the buffered-aggregation completion event.
// clients is retained by the event — pass a copy in buffer order.
func AggregateAsync(round int, clients []int, maxStaleness int, cycleVirtualSec, clock float64) Event {
	e := newEvent(KindAggregateAsync, round)
	e.Clients = clients
	e.Fill = len(clients)
	e.Staleness = maxStaleness
	e.VirtualSec, e.Clock = cycleVirtualSec, clock
	return e
}

// FleetHealth builds the fleet-level health record for one round:
// Jain's fairness index over cumulative selection counts and the
// virtual clock at observation time.
func FleetHealth(round int, fairness, clock float64) Event {
	e := newEvent(KindFleetHealth, round)
	e.Fairness, e.Clock = fairness, clock
	return e
}

// FleetClusterHealth builds the per-cluster health record for one
// round: the cluster's cumulative selection share, the scheduler's
// normalized θ target share, and the centroid drift since cluster time.
func FleetClusterHealth(round, cluster int, share, thetaShare, drift float64) Event {
	e := newEvent(KindFleetHealth, round)
	e.Cluster = cluster
	e.Share, e.Theta, e.Drift = share, thetaShare, drift
	return e
}

// ShardReport builds the event for one shard partial landing at the
// root aggregator. reporters is retained by the event — pass a copy in
// the shard's selection order. staleness is 0 in sync mode.
func ShardReport(round, shard int, reporters []int, samples int, wallSec float64, staleness int, shardClock float64) Event {
	e := newEvent(KindShardReport, round)
	e.Shard = shard
	e.Clients = reporters
	e.NumSamples = samples
	e.WallSec = wallSec
	e.Staleness = staleness
	e.Clock = shardClock
	return e
}

// ShardMerge builds the root-side hierarchical aggregation event:
// shards folded, total sample weight, aggregation wall time, and the
// root virtual clock after the merge.
func ShardMerge(round, shards, samples int, wallSec, clock float64) Event {
	e := newEvent(KindShardMerge, round)
	e.Fill = shards
	e.NumSamples = samples
	e.WallSec = wallSec
	e.Clock = clock
	return e
}

// ShardFailed builds a whole-shard failure event listing the shard's
// selected clients whose updates were discarded this round.
func ShardFailed(round, shard int, clients []int) Event {
	e := newEvent(KindShardFailed, round)
	e.Shard = shard
	e.Clients = clients
	return e
}

// Tracer receives trace events. Implementations must be safe for
// concurrent use: the engine emits ClientTrained from its worker
// goroutines. A nil Tracer disables tracing; callers guard, sinks
// never see nil receivers.
type Tracer interface {
	Emit(e Event)
}

// MultiTracer fans an event out to several sinks, skipping nils.
type MultiTracer []Tracer

// Emit implements Tracer.
func (m MultiTracer) Emit(e Event) {
	for _, t := range m {
		if t != nil {
			t.Emit(e)
		}
	}
}

// Combine returns a single Tracer over the non-nil arguments: nil when
// none remain, the sink itself when exactly one does, a MultiTracer
// otherwise.
func Combine(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return MultiTracer(live)
}
