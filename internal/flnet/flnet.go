// Package flnet is a minimal network transport for the federated
// protocol: clients connect to a coordinator over TCP, register with
// their distribution summary and system profile, then serve local-
// training requests. It demonstrates the deployment path the paper
// implements with gRPC/PySyft; the simulation experiments use the
// deterministic in-process engine instead, so this package carries the
// protocol, not the evaluation.
//
// One Register message from the client, then an alternating stream of
// TrainRequest/TrainReply pairs driven by the server, terminated by a
// Shutdown message. Framing is the session layer's (session.Codec): the
// control envelope is gob, the model vector of a request or reply
// follows it as raw little-endian float64s.
package flnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"haccs/internal/fleet"
	"haccs/internal/session"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// Register is the client's first message: its identity, summary and
// system characteristics (paper Fig. 2, steps 1-2).
type Register struct {
	ClientID int
	// SummaryKind is 0 for P(y), 1 for P(X|y).
	SummaryKind int
	// LabelCounts is the (possibly noised) P(y) histogram.
	LabelCounts []float64
	// FeatureCounts are the per-class (possibly noised) P(X|y)
	// histograms; empty slices mark absent classes.
	FeatureCounts [][]float64
	// LatencyEstimate is the client's expected round latency in seconds.
	LatencyEstimate float64
	// NumSamples is the local training-set size.
	NumSamples int
}

// TrainRequest pushes the global parameters for one round of local
// training (Fig. 2, step 3).
type TrainRequest struct {
	Round  int
	Params []float64
	// Trace is the coordinator's per-client train span context, so the
	// client's local-train span can parent under the coordinator's round
	// span tree. Zero when span tracing is off; a half-set context is a
	// protocol violation the client rejects as *session.ProtocolError.
	Trace telemetry.SpanContext
}

// WireSpan is a completed span shipped across the wire — the client's
// local-train measurement riding back on the TrainReply. Only the
// duration travels: client wall clocks are not comparable to the
// coordinator's, so the receiving side records it as a foreign span
// with an unknown start offset.
type WireSpan struct {
	Name     string
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	DurSec   float64
}

// TrainReply returns the locally updated parameters (Fig. 2, step 4).
// A client whose local data distribution has shifted may piggyback a
// refreshed summary (UpdatedLabelCounts non-nil), the wire form of the
// paper's §IV-C asynchronous summary updates; the coordinator forwards
// it to the scheduler for re-clustering.
type TrainReply struct {
	ClientID   int
	Round      int
	Params     []float64
	NumSamples int
	Loss       float64
	// UpdatedLabelCounts, when non-nil, replaces the client's P(y)
	// summary on the server.
	UpdatedLabelCounts []float64
	// TrainSpan, when non-nil, is the client's local-train span for this
	// round, parented under the request's Trace. Clients attach it only
	// when the request carried a trace; the server validates it against
	// the context it sent (see checkWireSpan).
	TrainSpan *WireSpan
	// Stats, when non-nil, is the client's self-reported training
	// statistics block feeding the coordinator's fleet health registry.
	// Like TrainSpan it is optional but validated: a malformed block
	// (non-finite wall time or loss, non-positive samples, negative
	// epochs) is a protocol violation that drops the session (see
	// checkClientStats).
	Stats *fleet.ClientStats
}

// Shutdown ends the session.
type Shutdown struct{ Reason string }

// Envelope wraps every wire message so a single stream can carry all
// types.
type Envelope struct {
	Register *Register
	Request  *TrainRequest
	Reply    *TrainReply
	Shutdown *Shutdown
}

// Vector implements session.Vectored: the Params of a request or reply
// travel as the frame's raw trailer, never through gob.
func (env Envelope) Vector() *[]float64 {
	switch {
	case env.Request != nil:
		return &env.Request.Params
	case env.Reply != nil:
		return &env.Reply.Params
	}
	return nil
}

// Trainer is the client-side computation: given global parameters,
// produce updated parameters, the local sample count, and a loss.
// params aliases the connection's receive buffer and is valid until
// Train returns; returning it (or a slice the Trainer reuses) as the
// update is fine, keeping it is not.
type Trainer interface {
	Train(round int, params []float64) (updated []float64, numSamples int, loss float64)
}

// TrainerFunc adapts a function to the Trainer interface.
type TrainerFunc func(round int, params []float64) ([]float64, int, float64)

// Train implements Trainer.
func (f TrainerFunc) Train(round int, params []float64) ([]float64, int, float64) {
	return f(round, params)
}

// Client is the device-side endpoint.
type Client struct {
	Reg     Register
	Trainer Trainer
	// SummaryRefresh, when set, is consulted after each local training
	// round; a non-nil return piggybacks a refreshed P(y) summary on the
	// reply (§IV-C adaptation). Most clients leave it nil.
	SummaryRefresh func(round int) []float64
}

// Run connects to the coordinator, registers, and serves training
// requests until the server shuts the session down or the connection
// fails. It returns the number of rounds served.
func (c *Client) Run(addr string) (rounds int, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("flnet: dial %s: %w", addr, err)
	}
	return c.Serve(conn)
}

// Serve registers over an already-established connection and serves
// training requests until shutdown or a connection failure, closing
// conn on return. Callers that manage the dial themselves (the load
// generator injects connection churn by closing conns out from under
// the protocol) use this instead of Run.
func (c *Client) Serve(conn net.Conn) (rounds int, err error) {
	defer conn.Close()
	codec := session.NewCodec(conn)
	if err := codec.Encode(Envelope{Register: &c.Reg}); err != nil {
		return 0, fmt.Errorf("flnet: register: %w", err)
	}
	for {
		var env Envelope
		if err := codec.Decode(&env); err != nil {
			return rounds, fmt.Errorf("flnet: receive: %w", err)
		}
		if err := env.Check(); err != nil {
			return rounds, err
		}
		switch {
		case env.Shutdown != nil:
			return rounds, nil
		case env.Request != nil:
			if !env.Request.Trace.Valid() {
				return rounds, hop.Err(ErrBadTraceContext, c.Reg.ClientID, env.Request.Round,
					"half-set span context on TrainRequest")
			}
			start := time.Now()
			params, n, loss := c.Trainer.Train(env.Request.Round, env.Request.Params)
			wall := time.Since(start).Seconds()
			reply := TrainReply{
				ClientID:   c.Reg.ClientID,
				Round:      env.Request.Round,
				Params:     params,
				NumSamples: n,
				Loss:       loss,
				Stats: &fleet.ClientStats{
					TrainWallSec: wall,
					Samples:      n,
					Loss:         loss,
				},
			}
			if sc := env.Request.Trace; !sc.Zero() {
				// Ship the local-train measurement back, parented under
				// the coordinator's train span. The client needs no
				// SpanTracer of its own — just a fresh ID.
				reply.TrainSpan = &WireSpan{
					Name:     "client_train",
					TraceID:  sc.TraceID,
					SpanID:   telemetry.NewSpanID(),
					ParentID: sc.SpanID,
					DurSec:   wall,
				}
			}
			if c.SummaryRefresh != nil {
				reply.UpdatedLabelCounts = c.SummaryRefresh(env.Request.Round)
			}
			if err := codec.Encode(Envelope{Reply: &reply}); err != nil {
				return rounds, fmt.Errorf("flnet: reply: %w", err)
			}
			rounds++
		default:
			return rounds, hop.Err(session.ErrUnexpectedMessage, c.Reg.ClientID, -1,
				"client expects TrainRequest or Shutdown")
		}
	}
}

// Server is the coordinator endpoint: it accepts registrations, then
// drives synchronized training rounds over the registered clients. The
// listener, the session table, the reconnect loop and the drop rule
// are internal/session's; what is here is the client hop's own — its
// messages, its admission policy and its reply validation.
type Server struct {
	sess *session.Server[Register]
}

// NewServer listens on addr (use "127.0.0.1:0" for an ephemeral port).
func NewServer(addr string) (*Server, error) {
	sess, err := session.Listen(hop.Name, addr, readRegister)
	if err != nil {
		return nil, err
	}
	return &Server{sess: sess}, nil
}

// readRegister is the hop's handshake: the first frame on a connection
// must be a well-formed envelope carrying a Register whose latency
// estimate is finite and non-negative.
func readRegister(dec *session.Codec) (int, Register, error) {
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		return 0, Register{}, fmt.Errorf("flnet: bad registration: %w", err)
	}
	if err := env.Check(); err != nil {
		return 0, Register{}, err
	}
	if env.Register == nil {
		return 0, Register{}, hop.Err(session.ErrUnexpectedMessage, -1, -1, "expected Register as first message")
	}
	if l := env.Register.LatencyEstimate; l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
		return 0, Register{}, hop.Err(ErrBadRegister, env.Register.ClientID, -1, fmt.Sprintf("latency estimate %v", l))
	}
	return env.Register.ClientID, *env.Register, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.sess.Addr() }

// EnableTelemetry attaches a metrics registry to the server (the
// session gauges and the reconnect counter) and, when httpAddr is
// non-empty, mounts the /metrics and /debug/trace endpoints on it (see
// session.Server.EnableTelemetry). The server itself emits no trace
// events: coordinator events come from the CoordinatorConfig's Tracer
// (combine the ring into that one when the tail endpoint should see
// them). Call before AcceptClients.
func (s *Server) EnableTelemetry(reg *telemetry.Registry, ring *telemetry.RingSink, httpAddr string, opts ...telemetry.ServeOption) (string, error) {
	return s.sess.EnableTelemetry(reg, ring, httpAddr, opts...)
}

// AcceptClients blocks until n clients have registered and returns
// their registrations; only a failure of the listener itself ends it
// early. A dialer refused at registration — a malformed first message,
// silence past the handshake timeout, a bad_register, or a Register for
// an already-registered ClientID — has its connection closed and is
// counted in haccs_net_registrations_refused_total{kind}, and the
// accept goes on: one liar cannot fail a fleet's start-up.
func (s *Server) AcceptClients(n int) ([]Register, error) {
	regs := make([]Register, 0, n)
	for len(regs) < n {
		c, err := s.sess.Accept()
		if errors.Is(err, session.ErrListener) {
			return regs, err
		}
		if err != nil {
			s.refused(err)
			continue
		}
		if !s.sess.Seat(c, false) {
			s.refused(hop.Err(ErrDuplicateRegister, c.ID, -1, "client already registered"))
			continue
		}
		s.seated(c)
		regs = append(regs, c.Hello)
	}
	return regs, nil
}

// refused counts a registration AcceptClients or the reconnect loop
// turned away, under session.RefusalKind.
func (s *Server) refused(err error) {
	if reg := s.sess.Registry(); reg != nil {
		reg.CounterVec("haccs_net_registrations_refused_total", "Connections refused at registration, by the initial accept or the reconnect loop, by kind.", "kind").With(session.RefusalKind(err)).Inc()
	}
}

// ServeReconnects starts a background accept loop that re-admits
// clients after AcceptClients has seated the initial fleet: each new
// connection registers exactly as in AcceptClients, but an already-
// known ClientID *replaces* its previous session instead of failing
// (see session.Server.Seat). A refused registration is closed and
// counted as AcceptClients counts it. The loop exits when the listener
// closes; Shutdown and Abort wait for it.
func (s *Server) ServeReconnects() {
	s.sess.ServeReconnects(func(c *session.Conn[Register]) {
		if s.sess.Seat(c, true) {
			s.seated(c)
		}
	}, s.refused)
}

// seated publishes a freshly seated session: a re-registration of a
// previously seen client (after a drop, or silently replacing a stale
// session) counts as a reconnect rather than a fresh join.
func (s *Server) seated(c *session.Conn[Register]) {
	if reg := s.sess.Registry(); reg != nil && c.Reconnect {
		reg.Counter("haccs_net_reconnects_total", "Re-registrations of previously seen clients (connection churn).").Inc()
	}
	s.publishSessions()
}

// publishSessions publishes the live-session count under both the
// original registered-clients name (a stable contract since the gauge
// first shipped) and the churn-oriented sessions-active alias the
// scale harness scrapes. Called wherever the count may have moved: a
// seat, a failed exchange, teardown.
func (s *Server) publishSessions() {
	reg := s.sess.Registry()
	if reg == nil {
		return
	}
	n := float64(s.sess.Len())
	reg.Gauge("haccs_net_registered_clients", "Clients currently registered with the coordinator.").Set(n)
	reg.Gauge("haccs_net_sessions_active", "Live client sessions on the coordinator (alias of registered clients, tracked for churn analysis).").Set(n)
}

// Sessions returns the number of live client sessions — the shard
// agent piggybacks it on every report so the root can export merged
// session gauges without scraping the shards.
func (s *Server) Sessions() int { return s.sess.Len() }

// Reconnects returns the cumulative count of re-registrations of
// previously seen clients (the counter behind
// haccs_net_reconnects_total, available without a registry).
func (s *Server) Reconnects() int { return s.sess.Reconnects() }

// Registrations returns a snapshot of all registered clients.
func (s *Server) Registrations() []Register { return s.sess.Peers() }

// Train runs one request/reply exchange with a single registered
// client: push the global parameters for the round, decode and validate
// the reply. It is the transport primitive the round driver's proxies
// call concurrently (one goroutine per selected client). sc is the
// caller's span context; it travels in the TrainRequest so the client's
// local-train span parents under the coordinator's round tree, and the
// reply's piggybacked span (if any) is validated against it. Any
// failure — connection error, EOF, malformed or mismatched reply —
// drops the session so a dead or misbehaving client cannot wedge later
// rounds, and returns the error (typed *session.ProtocolError for protocol
// violations) for the driver to record as a client failure.
//
// The returned TrainReply.Params aliases the session's receive buffer:
// it is valid until the next Train for the same client (a reconnected
// client gets a new session and a new buffer). params is only read.
func (s *Server) Train(clientID, round int, params []float64, sc telemetry.SpanContext) (TrainReply, error) {
	var env Envelope
	var reply *TrainReply
	err := s.sess.Exchange(clientID, Envelope{Request: &TrainRequest{Round: round, Params: params, Trace: sc}}, &env, len(params), func() (err error) {
		if reply, err = checkReply(&env, clientID, round, sc); err == nil {
			err = checkUpdate(reply, len(params))
		}
		return err
	})
	if err != nil {
		switch {
		case err == session.ErrNoSession:
			err = hop.Err(ErrNotRegistered, clientID, round, "no live session")
		case errors.Is(err, session.ErrBadVector):
			// Refused on its announced length, before any of it was read.
			err = hop.Err(ErrBadUpdate, clientID, round, err.Error())
		}
		s.publishSessions()
		return TrainReply{}, err
	}
	return *reply, nil
}

// Close shuts down every session and the listener; see Shutdown.
func (s *Server) Close() error { return s.stop(Envelope{Shutdown: &Shutdown{Reason: "done"}}) }

// Shutdown gracefully stops the coordinator: every registered client
// receives a Shutdown message (so Client.Run returns nil instead of a
// receive error) before the session layer tears down (see
// session.Server.Teardown). Safe to call more than once; no coordinator
// goroutines survive the call — the shutdown-audit test counts them.
func (s *Server) Shutdown() error { return s.stop(Envelope{Shutdown: &Shutdown{Reason: "shutdown"}}) }

// Abort tears the coordinator down without sending Shutdown envelopes:
// connections are simply closed, so clients observe a receive error —
// exactly what a coordinator crash looks like from the fleet. The
// scale harness uses it to inject a mid-run kill before exercising
// checkpoint resume; production code should call Shutdown.
func (s *Server) Abort() error { return s.stop(nil) }

// stop tears the session layer down (farewell nil = none) and zeroes
// the session gauges.
func (s *Server) stop(farewell any) error {
	err := s.sess.Teardown(farewell)
	s.publishSessions()
	return err
}

// RegisterFromSummary converts a core-style summary (label counts or
// per-class feature counts) into the wire form. Callers noise the
// histograms before registration when privacy is required.
func RegisterFromSummary(clientID int, labelCounts []float64, featureCounts [][]float64, latency float64, numSamples int) Register {
	kind := 0
	if featureCounts != nil {
		kind = 1
	}
	return Register{
		ClientID:        clientID,
		SummaryKind:     kind,
		LabelCounts:     append([]float64(nil), labelCounts...),
		FeatureCounts:   featureCounts,
		LatencyEstimate: latency,
		NumSamples:      numSamples,
	}
}

// LabelHistogram reconstructs a stats.Histogram from wire counts.
func (r Register) LabelHistogram() *stats.Histogram {
	return &stats.Histogram{Counts: append([]float64(nil), r.LabelCounts...)}
}
