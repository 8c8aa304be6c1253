package flnet

import (
	"fmt"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/nn"
	"haccs/internal/rounds"
	"haccs/internal/telemetry"
)

// CoordinatorConfig parameterizes the network-side round runtime. It
// mirrors rounds.Config; the coordinator adds only what is specific to
// the wire: per-round wall-clock telemetry and the registered-client
// roster.
type CoordinatorConfig struct {
	// ClientsPerRound is the selection budget k.
	ClientsPerRound int
	// Deadline is the virtual-time round deadline in seconds (see
	// rounds.Config.Deadline). The exchange with a straggler still
	// completes — the deadline governs whose update is aggregated and
	// how far the virtual clock advances, exactly as in simulation.
	// Sync-only: async mode bounds slow updates with Async.MaxStaleness.
	Deadline float64
	// Mode selects the round runtime driving the wire: synchronous
	// barrier rounds (the zero value) or FedBuff-style buffered
	// asynchronous aggregation (see rounds.Mode).
	Mode rounds.Mode
	// Async tunes the buffered asynchronous driver when Mode is
	// rounds.ModeAsync; ignored in sync mode.
	Async rounds.AsyncConfig
	// Tracer receives the round-trace event stream (nil = off).
	Tracer telemetry.Tracer
	// Spans, when non-nil, times the round lifecycle as a span tree
	// (see rounds.Config.Spans) and additionally records each client's
	// own local-train span shipped back over the wire, parented under
	// the coordinator's per-client train span.
	Spans *telemetry.SpanTracer
	// Metrics, when non-nil, receives the driver's collectors plus the
	// coordinator's haccs_net_* series.
	Metrics *telemetry.Registry
	// OnSummary receives refreshed client summaries piggybacked on
	// training replies (TrainReply.UpdatedLabelCounts); wire it to the
	// HACCS scheduler's UpdateSummaries for §IV-C re-clustering.
	OnSummary func(clientID int, labelCounts []float64)
	// Fleet, when non-nil, is the per-client health registry fed one
	// observation per round; on the wire transport it additionally
	// receives each reporter's validated self-reported stats block. It
	// joins the checkpoint component set so resumed coordinators keep
	// their fleet history bit-identically.
	Fleet *fleet.Registry
	// Checkpoint, when non-nil, durably persists the coordinator's run
	// state (model, driver clock and dead mask, strategy) every
	// CheckpointEvery rounds, so a coordinator that dies mid-run can be
	// rebuilt over a fresh server — clients re-registering — and
	// continue the round sequence exactly where it stopped (see
	// Coordinator.Restore).
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the snapshot cadence in rounds when Checkpoint
	// is set (<= 0 means every round).
	CheckpointEvery int
}

// Coordinator drives federated rounds over registered flnet clients
// through the shared round runtime: the same selection, deadline,
// partial-aggregation and failure semantics as the in-process engine,
// with the framed wire protocol (session.Codec) as the transport. Build
// it after AcceptClients has gathered the full roster. Its run methods
// — RunRound, Snapshot, Restore, NextRound, Global, Clock, Runner — are
// the embedded run assembly's: a round over the wire carries the
// coordinator-level NetRound event and haccs_net_* metrics on top of
// the driver's own and persists a checkpoint on cadence.
type Coordinator struct{ *rounds.Run }

// Transport serves a fixed set of client proxies to the round driver.
// Parallelism is the roster size so every push in a round goes out
// concurrently — the network, not a worker pool, is the bottleneck.
type Transport []rounds.Proxy

func (t Transport) Proxies() []rounds.Proxy { return t }
func (t Transport) Parallelism() int        { return len(t) }

// Proxy returns the round-driver endpoint for the registered client
// reg: it trains through Train and reports reg's latency estimate.
// spans, when non-nil, records the client's own local-train span
// shipped back on each reply.
func (s *Server) Proxy(reg Register, spans *telemetry.SpanTracer) rounds.Proxy {
	return &netProxy{srv: s, id: reg.ClientID, latency: reg.LatencyEstimate, spans: spans}
}

// netProxy trains one remote client through the Server's single-client
// exchange. Train errors (disconnect, protocol violation) surface to
// the driver, which excludes the client from aggregation and marks it
// dead; the Server has already dropped the session.
type netProxy struct {
	srv     *Server
	id      int
	latency float64
	spans   *telemetry.SpanTracer
}

func (p *netProxy) Train(round, worker, slot int, params []float64, sc telemetry.SpanContext) (rounds.Result, error) {
	reply, err := p.srv.Train(p.id, round, params, sc)
	if err != nil {
		return rounds.Result{}, err
	}
	if ws := reply.TrainSpan; ws != nil {
		// Validated by checkReply; record it as a foreign span (the
		// client's clock is not comparable, so only the duration counts).
		p.spans.EmitForeign(ws.Name, ws.TraceID, ws.SpanID, ws.ParentID, round, p.id, ws.DurSec)
	}
	return rounds.Result{
		ClientID:   p.id,
		Params:     reply.Params,
		NumSamples: reply.NumSamples,
		Loss:       reply.Loss,
		Summary:    reply.UpdatedLabelCounts,
		Stats:      reply.Stats,
	}, nil
}

func (p *netProxy) Latency() float64 { return p.latency }

// NewCoordinator builds the round runtime over the server's registered
// clients. Registrations must form a dense ID space 0..n-1 (the
// driver's roster indexing); the strategy must already be initialized
// with the same roster. initial is the starting global parameter
// vector; the coordinator's driver takes ownership.
func NewCoordinator(srv *Server, cfg CoordinatorConfig, strategy rounds.Strategy, initial []float64) (*Coordinator, error) {
	regs := srv.Registrations()
	if len(regs) == 0 {
		return nil, fmt.Errorf("flnet: no registered clients")
	}
	proxies := make(Transport, len(regs))
	for _, r := range regs {
		if r.ClientID < 0 || r.ClientID >= len(regs) {
			return nil, fmt.Errorf("flnet: client ID %d outside dense range [0,%d)", r.ClientID, len(regs))
		}
		if proxies[r.ClientID] != nil {
			return nil, fmt.Errorf("flnet: duplicate client ID %d in roster", r.ClientID)
		}
		proxies[r.ClientID] = srv.Proxy(r, cfg.Spans)
	}
	rcfg := rounds.Config{
		ClientsPerRound: cfg.ClientsPerRound,
		Deadline:        cfg.Deadline,
		Tracer:          cfg.Tracer,
		Spans:           cfg.Spans,
		Metrics:         cfg.Metrics,
		OnSummary:       cfg.OnSummary,
		Fleet:           cfg.Fleet,
	}
	// The coordinator receives user-supplied configuration, so an
	// invalid one is returned as the typed rounds error, not a panic.
	driver, err := rounds.NewRunner(cfg.Mode, rcfg, cfg.Async, proxies, strategy, initial)
	if err != nil {
		return nil, fmt.Errorf("flnet: %w", err)
	}
	return &Coordinator{rounds.NewRun(driver, rcfg, strategy, nn.Arch{}, cfg.Checkpoint, cfg.CheckpointEvery)}, nil
}

// Dead reports whether a client's session failed in an earlier round.
func (c *Coordinator) Dead(id int) bool { return c.Runner().Dead(id) }
