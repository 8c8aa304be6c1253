package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/nn"
	"haccs/internal/rounds"
	"haccs/internal/session"
	"haccs/internal/telemetry"
)

// RootServer is the root aggregator's transport endpoint: it accepts
// shard Hellos, replays Acks to reconnecting shards, and runs the
// Cmd/Report exchange the hierarchical driver's proxies call. It sits
// on the same session layer as flnet.Server one level down
// (internal/session): a protocol violation or transport error drops
// the shard session, and the round runtime then treats the shard as
// failed for the round. What is here is the shard hop's own admission
// policy — the Ack is deferred until the plan exists, and a
// reconnecting shard replaces its stale session only after re-offering
// the roster of its first Hello.
type RootServer struct {
	sess *session.Server[Hello]

	mu sync.Mutex
	// hellos pins each shard's first-announced roster; reconnects must
	// re-offer it exactly (the partition is fixed for the run).
	hellos    map[int]Hello
	acks      map[int]Ack
	nextRound func() int
	// dim is the model dimension, the only non-zero length a Report's
	// partial may announce; 0 until the plan is set.
	dim int
	// statuses is the /debug/shards view the Root publishes at every
	// round boundary, so the handler never reads the driver mid-round.
	statuses []rounds.ShardStatus
}

// NewRootServer listens on addr (use "127.0.0.1:0" for an ephemeral
// port).
func NewRootServer(addr string) (*RootServer, error) {
	sess, err := session.Listen("shard", addr, readHello)
	if err != nil {
		return nil, err
	}
	return &RootServer{sess: sess, hellos: map[int]Hello{}}, nil
}

// readHello is the hop's handshake: the first frame on a connection
// must be a well-formed envelope carrying a consistent Hello.
func readHello(dec *session.Codec) (int, Hello, error) {
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		return 0, Hello{}, fmt.Errorf("shard: bad hello: %w", err)
	}
	if err := env.Check(); err != nil {
		return 0, Hello{}, err
	}
	if env.Hello == nil {
		return 0, Hello{}, hop.Err(session.ErrUnexpectedMessage, -1, -1, "expected Hello as first message")
	}
	if err := env.Hello.check(); err != nil {
		return 0, Hello{}, err
	}
	return env.Hello.ShardID, *env.Hello, nil
}

// Addr returns the root's listen address.
func (s *RootServer) Addr() string { return s.sess.Addr() }

// EnableTelemetry attaches a metrics registry (the shard-reconnect
// counter) and, when httpAddr is non-empty, serves the root's
// observability endpoint there: /metrics and /debug/trace (see
// session.Server.EnableTelemetry), /debug/shards — the per-shard
// statuses the Root publishes at each round boundary — and, when
// fleetReg is non-nil, /debug/fleet over the merged fleet registry.
// The root's trace events come from the RootConfig's Tracer.
func (s *RootServer) EnableTelemetry(reg *telemetry.Registry, httpAddr string, fleetReg *fleet.Registry) (string, error) {
	opts := []telemetry.ServeOption{telemetry.WithEndpoint("/debug/shards", http.HandlerFunc(s.serveShards))}
	if fleetReg != nil {
		opts = append(opts, telemetry.WithEndpoint("/debug/fleet", s.fleetHandler(fleetReg)))
	}
	return s.sess.EnableTelemetry(reg, nil, httpAddr, opts...)
}

// serveShards writes the published shard statuses as indented JSON.
func (s *RootServer) serveShards(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.shardStatuses()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// fleetHandler serves reg like fleet.Handler, plus ?shard=<id>: only
// the clients in that shard's Hello roster are kept. The fleet-wide
// aggregates (rounds, clock, fairness) stay global — they describe the
// run, not the slice.
func (s *RootServer) fleetHandler(reg *fleet.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		st := reg.State()
		if q := req.URL.Query().Get("shard"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "shard: ?shard= must be an integer shard ID", http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			roster := s.hellos[id].Clients
			s.mu.Unlock()
			owned := make(map[int]bool, len(roster))
			for _, c := range roster {
				owned[c.ID] = true
			}
			st.Clients = slices.DeleteFunc(st.Clients, func(c fleet.ClientHealth) bool { return !owned[c.ID] })
		}
		fleet.Serve(w, req, st)
	})
}

// shardStatuses returns a copy of the last published view.
func (s *RootServer) shardStatuses() []rounds.ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.statuses)
}

// AcceptShards blocks until n distinct shards have said Hello (or an
// accept fails) and returns their Hellos sorted by shard ID. No Acks
// are sent yet: the root's plan (θ budgets, mode parameters) needs
// every shard's representatives, so NewRoot computes it over the full
// set and sends the Acks then. A malformed Hello, a dialer that stays
// silent past the handshake timeout, or a duplicate shard ID closes
// that connection and fails the accept (with a typed *session.ProtocolError
// for protocol violations).
func (s *RootServer) AcceptShards(n int) ([]Hello, error) {
	for s.sess.Len() < n {
		c, err := s.sess.Accept()
		if err != nil {
			return nil, err
		}
		if !s.sess.Seat(c, false) {
			return nil, hop.Err(ErrDuplicateShard, c.ID, -1, "shard already connected")
		}
		s.mu.Lock()
		s.hellos[c.ID] = c.Hello
		s.mu.Unlock()
	}
	return s.Hellos(), nil
}

// Hellos returns the accepted shards' Hellos sorted by shard ID.
func (s *RootServer) Hellos() []Hello {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Hello, 0, len(s.hellos))
	for _, h := range s.hellos {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShardID < out[j].ShardID })
	return out
}

// setPlan stores the per-shard Acks and the model dimension and pushes
// the Acks to every connected shard; reconnecting shards get theirs
// replayed by the admission policy. Called by NewRoot once the plan is
// computed over the full Hello set.
func (s *RootServer) setPlan(acks map[int]Ack, nextRound func() int, dim int) error {
	s.mu.Lock()
	s.acks = acks
	s.nextRound = nextRound
	s.dim = dim
	s.mu.Unlock()
	for _, h := range s.sess.Peers() {
		if err := s.sendAck(h.ShardID); err != nil {
			return err
		}
	}
	return nil
}

// sendAck pushes a shard its planned Ack stamped with the current round
// position; a shard the plan does not cover (or any shard before
// setPlan) gets nothing yet.
func (s *RootServer) sendAck(shardID int) error {
	s.mu.Lock()
	ack, ok := s.acks[shardID]
	next := s.nextRound
	s.mu.Unlock()
	if !ok {
		return nil
	}
	ack.NextRound = next()
	return s.sess.Send(shardID, Envelope{Ack: &ack})
}

// ServeReconnects starts the background admission loop for shards
// redialing after a connection loss (or after a root crash-restore,
// where every shard redials a fresh RootServer that learned the
// rosters from AcceptShards again). The loop exits when the listener
// closes; Shutdown and Abort wait for it. A redial refused at its
// Hello or by admit is closed and counted in
// haccs_root_shard_registrations_refused_total{kind}.
func (s *RootServer) ServeReconnects() { s.sess.ServeReconnects(s.admit, s.refused) }

// refused counts a shard redial the reconnect loop turned away, under
// session.RefusalKind.
func (s *RootServer) refused(err error) {
	if reg := s.sess.Registry(); reg != nil {
		reg.CounterVec("haccs_root_shard_registrations_refused_total", "Shard redials refused at re-registration, by kind.", "kind").With(session.RefusalKind(err)).Inc()
	}
}

// admit is the reconnect policy: the re-offered roster must match the
// original Hello exactly (the partition is fixed for the run), after
// which the stale session is replaced and the stored Ack replayed with
// the current round position.
func (s *RootServer) admit(c *session.Conn[Hello]) {
	s.mu.Lock()
	known, seen := s.hellos[c.ID]
	s.mu.Unlock()
	if !seen || !slices.Equal(known.Clients, c.Hello.Clients) {
		// An unknown shard mid-run, or a shard trying to change its
		// slice: refuse (the typed error is advisory — the agent will
		// keep redialing and keep being refused, which is the correct
		// steady state until the operator fixes the ring).
		kind := ErrRosterMismatch
		if !seen {
			kind = ErrNotConnected
		}
		err := hop.Err(kind, c.ID, -1, "reconnect refused")
		c.Reject(Envelope{Bye: &Bye{Reason: err.Error()}})
		s.refused(err)
		return
	}
	if !s.sess.Seat(c, true) {
		return
	}
	if reg := s.sess.Registry(); reg != nil {
		reg.Counter("haccs_root_shard_reconnects_total", "Shard re-registrations with the root (uplink churn).").Inc()
	}
	// A failed replay has already dropped the session; the shard redials.
	_ = s.sendAck(c.ID)
}

// exec runs one Cmd/Report exchange with a single connected shard —
// the transport primitive behind the hierarchical driver's proxies.
// Any failure drops the session (a reconnecting shard re-admits
// through ServeReconnects) and surfaces to the driver as a whole-shard
// round failure. The returned Report's Partial aliases the session's
// receive buffer: it is valid until the next exec for the same shard.
func (s *RootServer) exec(shardID int, cmd rounds.ShardCmd) (*Report, error) {
	s.mu.Lock()
	dim := s.dim
	s.mu.Unlock()
	var env Envelope
	var rep *Report
	err := s.sess.Exchange(shardID, Envelope{Cmd: &cmd}, &env, dim, func() (err error) {
		rep, err = checkReport(&env, shardID, cmd.Round)
		return err
	})
	switch {
	case err == session.ErrNoSession:
		err = hop.Err(ErrNotConnected, shardID, cmd.Round, "no live session")
	case errors.Is(err, session.ErrBadVector):
		// Refused on its announced length, before any of it was read.
		err = hop.Err(ErrBadReport, shardID, cmd.Round, err.Error())
	}
	return rep, err
}

// Sessions returns the number of live shard sessions.
func (s *RootServer) Sessions() int { return s.sess.Len() }

// Close shuts the root down gracefully; see Shutdown.
func (s *RootServer) Close() error { return s.Shutdown() }

// Shutdown gracefully stops the root: every connected shard receives a
// Bye (so Agent.Run returns nil), the listener and admission loop
// stop, and the telemetry endpoint drains.
func (s *RootServer) Shutdown() error {
	return s.sess.Teardown(Envelope{Bye: &Bye{Reason: "shutdown"}})
}

// Abort tears the root down without farewells: connections close, so
// shards observe a receive error and start redialing — exactly what a
// root crash looks like from below. The scale harness uses it to
// inject a mid-run kill before exercising checkpoint resume.
func (s *RootServer) Abort() error { return s.sess.Teardown(nil) }

// RootConfig parameterizes the hierarchical root runtime. It mirrors
// flnet.CoordinatorConfig with the hierarchical additions: the async
// resync cadence and the shard-local buffer size pushed down in the
// Acks.
type RootConfig struct {
	// ClientsPerRound is the global selection budget k. In async mode
	// it is apportioned across shards as their local θ budgets.
	ClientsPerRound int
	// Deadline is the sync straggler deadline in virtual seconds,
	// applied by the shards and cross-checked by the root.
	Deadline float64
	// Mode selects sync barrier rounds or async staleness-weighted
	// merging of shard flushes (see rounds.HierConfig).
	Mode rounds.Mode
	// Async tunes the root merge and, through the Acks, the shards'
	// local buffered drivers.
	Async rounds.AsyncConfig
	// ResyncEvery is the async base-refresh cadence (see
	// rounds.HierConfig.ResyncEvery).
	ResyncEvery int
	// Tracer receives the root's round-trace event stream, including
	// the shard_report/shard_merge/shard_failed hierarchy events.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, receives the driver collectors plus the
	// haccs_shard_* family and the merged fleet gauges.
	Metrics *telemetry.Registry
	// Fleet, when non-nil, is the root's per-client health registry; it
	// joins the checkpoint component set.
	Fleet *fleet.Registry
	// Checkpoint/CheckpointEvery persist the root's run state on
	// cadence, so a crashed root rebuilt over re-registered shards
	// resumes the round sequence (see Root.Restore). Sync shards are
	// stateless between rounds, so sync resume is exact; async shards
	// lose at most one un-merged local buffer each (bounded loss).
	Checkpoint      *checkpoint.Store
	CheckpointEvery int
}

// Root drives hierarchical federated rounds over connected shard
// agents: flnet.Coordinator's role, one level up. Build it after
// AcceptShards has gathered the full shard set; construction computes
// the θ-budget plan and sends every shard its Ack.
type Root struct {
	*rounds.Run
	srv    *RootServer
	driver *rounds.HierDriver
	reg    *telemetry.Registry

	budgets map[int]int
}

// rootProxy adapts one shard session to the hierarchical driver.
type rootProxy struct {
	srv     *RootServer
	id      int
	clients []rounds.ShardClient
}

func (p *rootProxy) ID() int                       { return p.id }
func (p *rootProxy) Clients() []rounds.ShardClient { return p.clients }

// Exec runs one cycle on the shard. The report's Partial is valid until
// the next Exec on this proxy (see RootServer.exec); cmd.Params is only
// read.
func (p *rootProxy) Exec(cmd rounds.ShardCmd) (*rounds.ShardReport, error) {
	rep, err := p.srv.exec(p.id, cmd)
	if err != nil {
		return nil, err
	}
	return &rep.ShardReport, nil
}

// NewRoot builds the hierarchical runtime over the server's accepted
// shards: the shards' announced rosters must partition a dense client
// ID space 0..n-1 (consistent hashing via Ring produces exactly that);
// in sync mode the strategy must already be initialized over the full
// roster. initial is the starting global vector (the driver takes
// ownership). Construction computes the per-shard θ-budget plan from
// the Hello representatives and acks every connected shard.
func NewRoot(srv *RootServer, cfg RootConfig, strategy rounds.Strategy, initial []float64) (*Root, error) {
	hellos := srv.Hellos()
	if len(hellos) == 0 {
		return nil, fmt.Errorf("shard: no connected shards")
	}
	mode := cfg.Mode
	if mode == "" {
		mode = rounds.ModeSync
	}
	budgets := PlanBudgets(hellos, cfg.ClientsPerRound)
	proxies := make([]rounds.ShardProxy, len(hellos))
	for i, h := range hellos {
		proxies[i] = &rootProxy{srv: srv, id: h.ShardID, clients: h.Clients}
	}
	rcfg := rounds.Config{
		ClientsPerRound: cfg.ClientsPerRound,
		Deadline:        cfg.Deadline,
		Tracer:          cfg.Tracer,
		Metrics:         cfg.Metrics,
		Fleet:           cfg.Fleet,
	}
	hcfg := rounds.HierConfig{Mode: mode, Async: cfg.Async, ResyncEvery: cfg.ResyncEvery}
	driver, err := rounds.NewHierDriver(rcfg, hcfg, proxies, strategy, initial)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	r := &Root{
		srv:     srv,
		driver:  driver,
		Run:     rounds.NewRun(driver, rcfg, strategy, nn.Arch{}, cfg.Checkpoint, cfg.CheckpointEvery),
		reg:     cfg.Metrics,
		budgets: make(map[int]int, len(hellos)),
	}
	r.refreshStatuses()
	acks := make(map[int]Ack, len(hellos))
	for i, h := range hellos {
		r.budgets[h.ShardID] = budgets[i]
		acks[h.ShardID] = Ack{
			Mode:              string(mode),
			Deadline:          cfg.Deadline,
			Budget:            budgets[i],
			ResyncEvery:       cfg.ResyncEvery,
			MaxStaleness:      cfg.Async.MaxStaleness,
			StalenessExponent: cfg.Async.StalenessExponent,
			BufferK:           cfg.Async.BufferK,
		}
	}
	if err := srv.setPlan(acks, r.NextRound, len(initial)); err != nil {
		return nil, err
	}
	return r, nil
}

// Budget returns a shard's planned async selection budget θ_s (0 for
// unknown shards).
func (r *Root) Budget(shardID int) int { return r.budgets[shardID] }

// Restore replays a snapshot into a freshly built root over the same
// shard partition (the shards re-said Hello to the new RootServer); see
// rounds.Run.Restore.
func (r *Root) Restore(snap *checkpoint.Snapshot) error {
	if err := r.Run.Restore(snap); err != nil {
		return err
	}
	r.refreshStatuses()
	// A restore implies a root restart: every shard currently seated
	// re-registered with the new process — uplink churn the crashed
	// root could not count through its admission loop.
	if r.reg != nil {
		if n := r.srv.Sessions(); n > 0 {
			r.reg.Counter("haccs_root_shard_reconnects_total", "Shard re-registrations with the root (uplink churn).").Add(float64(n))
		}
	}
	return nil
}

// RunRound executes one hierarchical round through the run assembly
// (NetRound event, haccs_net_* metrics and checkpoint cadence as on
// every network adapter), then refreshes the /debug/shards view.
func (r *Root) RunRound(round int) rounds.Outcome {
	out := r.Run.RunRound(round)
	r.refreshStatuses()
	return out
}

// refreshStatuses publishes the driver's shard view to the server.
func (r *Root) refreshStatuses() {
	st := r.driver.ShardStatuses()
	r.srv.mu.Lock()
	r.srv.statuses = st
	r.srv.mu.Unlock()
}

// ShardStatuses returns the per-shard view after the last completed
// round, as /debug/shards serves it. Safe to call concurrently with
// RunRound: it reads the copy published at each round boundary.
func (r *Root) ShardStatuses() []rounds.ShardStatus { return r.srv.shardStatuses() }

// Driver exposes the underlying hierarchical runtime.
func (r *Root) Driver() *rounds.HierDriver { return r.driver }
