package shard

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/session"
	"haccs/internal/sketch"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// The geometry and seed of the agent's sketch representatives. Every
// shard in a deployment must use the same ones, or the root's
// cross-shard clustering compares incomparable vectors, so they are
// constants rather than options.
const (
	DefaultSketchDim  = 32
	DefaultSketchSeed = 0x5ac1d
)

// AgentConfig parameterizes one shard coordinator's root-facing side.
type AgentConfig struct {
	// ShardID is this shard's stable identity on the consistent-hash
	// ring. Must be >= 0 and unique across the deployment.
	ShardID int
	// Root is the root aggregator's TCP address.
	Root string
	// Server is the shard's client-facing coordinator with its fleet
	// slice already registered (AcceptClients done). The agent builds
	// its roster and sketch representatives from the registrations and
	// drives training through Server.Train.
	Server *flnet.Server
	// Metrics, when non-nil, receives the shard-local driver collectors
	// (async mode) — the root separately exports the haccs_shard_*
	// family from its own vantage point.
	Metrics *telemetry.Registry
	// Tracer receives the shard-local round events (async mode).
	Tracer telemetry.Tracer
	// StrategySeed seeds the async local uniform selection stream
	// (derived per shard, so equal seeds across shards do not correlate).
	StrategySeed uint64
	// RedialEvery is the pause between reconnection attempts to the
	// root; RedialFor bounds how long the agent keeps dialing a dead
	// root before giving up. Defaults: 50ms / 30s.
	RedialEvery time.Duration
	RedialFor   time.Duration
}

// Agent is the shard coordinator's uplink: it registers the shard's
// roster slice with the root (Hello/Ack), then serves Cmd/Report
// exchanges — training its clients through the local flnet server in
// sync mode, or running a local buffered async driver between root
// resyncs — until the root says Bye. A lost root connection is
// redialed with the full handshake; the root validates the re-offered
// roster and replays the Ack, so a root crash-and-restore looks to the
// agent like one long round gap.
type Agent struct {
	cfg     AgentConfig
	roster  []rounds.ShardClient
	latency map[int]float64
	hello   Hello
	// proxies train the roster's clients through the server, in roster
	// order — the async local driver's dense client index.
	proxies flnet.Transport

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	ack   Ack
	acked bool

	// partial backs every Report's Partial. One buffer is enough: a
	// report is fully written to the wire before the next Cmd is read.
	partial []float64

	// Async-mode local state, built lazily on first Ack.
	local       *rounds.AsyncDriver
	localRound  int
	baseVersion int
	prev        []float64
}

// NewAgent builds the agent over an already-seated shard server: the
// roster comes from the server's registrations (sorted by global ID),
// and the Hello's sketch representatives from a shard-local ε-net over
// the clients' label histograms.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ShardID < 0 {
		return nil, fmt.Errorf("shard: negative shard ID %d", cfg.ShardID)
	}
	if cfg.Server == nil {
		return nil, errors.New("shard: agent needs a client-facing server")
	}
	if cfg.RedialEvery <= 0 {
		cfg.RedialEvery = 50 * time.Millisecond
	}
	if cfg.RedialFor <= 0 {
		cfg.RedialFor = 30 * time.Second
	}
	regs := cfg.Server.Registrations()
	if len(regs) == 0 {
		return nil, errors.New("shard: agent owns no registered clients")
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].ClientID < regs[j].ClientID })
	a := &Agent{
		cfg:     cfg,
		roster:  make([]rounds.ShardClient, len(regs)),
		latency: make(map[int]float64, len(regs)),
		proxies: make(flnet.Transport, len(regs)),
	}
	for i, r := range regs {
		if r.ClientID < 0 {
			return nil, fmt.Errorf("shard: registered client has negative ID %d", r.ClientID)
		}
		a.roster[i] = rounds.ShardClient{ID: r.ClientID, Latency: r.LatencyEstimate}
		a.latency[r.ClientID] = r.LatencyEstimate
		a.proxies[i] = cfg.Server.Proxy(r, nil)
	}
	reps, counts, dim := buildReps(regs)
	a.hello = Hello{
		ShardID:   cfg.ShardID,
		Clients:   a.roster,
		SketchDim: dim,
		Reps:      reps,
		RepCounts: counts,
		Sessions:  cfg.Server.Sessions(),
	}
	if err := a.hello.check(); err != nil {
		return nil, err
	}
	return a, nil
}

// buildReps runs a shard-local ε-net over the registrations' label
// histograms (amplitude-encoded, the same √p embedding the scheduler's
// sketch backend uses) and returns the representative sketches with
// their member counts. Clients without label counts attach to a zero
// histogram's uniform amplitude, so the shard still announces one
// representative.
func buildReps(regs []flnet.Register) ([][]float64, []int, int) {
	sk := sketch.New(sketch.Config{Dim: DefaultSketchDim, Seed: DefaultSketchSeed})
	idx := sketch.NewIndex(len(regs), sk.Dim(), sketch.DefaultAttachRadius, nil)
	var amp []float64
	for i, r := range regs {
		bins := max(len(r.LabelCounts), 1)
		if len(amp) < bins {
			amp = make([]float64, bins)
		}
		stats.AmplitudeInto(amp[:bins], r.LabelCounts)
		idx.Observe(i, sk.Sketch(amp[:bins]))
	}
	reps := make([][]float64, idx.Len())
	counts := make([]int, idx.Len())
	for r := 0; r < idx.Len(); r++ {
		reps[r] = append([]float64(nil), idx.Rep(r)...)
		counts[r] = idx.Count(r)
	}
	return reps, counts, sk.Dim()
}

// Close stops the agent: the current root connection is torn down and
// Run returns after its in-flight exchange (if any) fails.
func (a *Agent) Close() {
	a.mu.Lock()
	a.closed = true
	conn := a.conn
	a.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (a *Agent) stopped() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Run dials the root, performs the Hello/Ack handshake, and serves
// Cmd/Report exchanges until the root sends Bye (returns nil), Close
// is called (returns nil), or the root stays unreachable past
// RedialFor (returns the last error). A broken connection mid-run is
// redialed with a fresh handshake — the root replays the Ack after
// validating the roster, so rounds resume transparently.
func (a *Agent) Run() error {
	var lastErr error
	deadline := time.Now().Add(a.cfg.RedialFor)
	for {
		if a.stopped() {
			return nil
		}
		conn, err := net.Dial("tcp", a.cfg.Root)
		if err != nil {
			lastErr = err
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d: root unreachable: %w", a.cfg.ShardID, lastErr)
			}
			time.Sleep(a.cfg.RedialEvery)
			continue
		}
		deadline = time.Now().Add(a.cfg.RedialFor)
		err = a.serve(conn)
		if err == nil || a.stopped() {
			return nil
		}
		lastErr = err
		time.Sleep(a.cfg.RedialEvery)
	}
}

// serve runs one connected session: handshake, then the Cmd/Report
// loop. Returns nil only on a clean Bye.
func (a *Agent) serve(conn net.Conn) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		return nil
	}
	a.conn = conn
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		if a.conn == conn {
			a.conn = nil
		}
		a.mu.Unlock()
		conn.Close()
	}()
	codec := session.NewCodec(conn)
	hello := a.hello
	hello.Sessions = a.cfg.Server.Sessions()
	if err := codec.Encode(Envelope{Hello: &hello}); err != nil {
		return fmt.Errorf("shard %d: hello: %w", a.cfg.ShardID, err)
	}
	var env Envelope
	if err := codec.Decode(&env); err != nil {
		return fmt.Errorf("shard %d: await ack: %w", a.cfg.ShardID, err)
	}
	if err := env.Check(); err != nil {
		return err
	}
	if env.Bye != nil {
		return nil
	}
	if env.Ack == nil {
		return hop.Err(session.ErrUnexpectedMessage, a.cfg.ShardID, -1, "expected Ack after Hello")
	}
	a.ack = *env.Ack
	a.acked = true
	for {
		var env Envelope
		if err := codec.Decode(&env); err != nil {
			return fmt.Errorf("shard %d: receive: %w", a.cfg.ShardID, err)
		}
		if err := env.Check(); err != nil {
			return err
		}
		switch {
		case env.Bye != nil:
			return nil
		case env.Cmd != nil:
			rep := a.exec(env.Cmd)
			if err := codec.Encode(Envelope{Report: rep}); err != nil {
				return fmt.Errorf("shard %d: report: %w", a.cfg.ShardID, err)
			}
		default:
			return hop.Err(session.ErrUnexpectedMessage, a.cfg.ShardID, -1, "expected Cmd or Bye")
		}
	}
}

// partialBuf returns the agent's partial buffer, zeroed, at length n.
func (a *Agent) partialBuf(n int) []float64 {
	if cap(a.partial) < n {
		a.partial = make([]float64, n)
	}
	p := a.partial[:n]
	clear(p)
	return p
}

// exec runs one root work order and builds the report.
func (a *Agent) exec(cmd *rounds.ShardCmd) *Report {
	if a.ack.Mode == string(rounds.ModeAsync) {
		return a.execAsync(cmd)
	}
	return a.execSync(cmd)
}

// execSync trains every selected client in parallel through the local
// flnet server — the exchange completes even for stragglers, exactly
// like the flat coordinator — then applies the sync outcome rule the
// root applies (rounds.SyncOutcome) to split selected into
// reporters/cut/failed and sums the reporters' updates into the
// unnormalized partial Σ n_r·w_r.
func (a *Agent) execSync(cmd *rounds.ShardCmd) *Report {
	sel := cmd.Selected
	replies := make([]flnet.TrainReply, len(sel))
	failed := make([]bool, len(sel))
	var wg sync.WaitGroup
	for i, id := range sel {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			var err error
			replies[i], err = a.cfg.Server.Train(id, cmd.Round, cmd.Params, telemetry.SpanContext{})
			// A client the root believes we own but we never saw is
			// reported failed rather than silently inventing an update.
			_, known := a.latency[id]
			failed[i] = err != nil || !known
		}(i, id)
	}
	wg.Wait()

	var out rounds.SyncOutcome
	out.Resolve(sel, func(id int) float64 { return a.latency[id] }, a.ack.Deadline, failed, nil)
	rep := &Report{ShardID: a.cfg.ShardID, Round: cmd.Round, ShardReport: rounds.ShardReport{
		Sessions:   a.cfg.Server.Sessions(),
		Reconnects: a.cfg.Server.Reconnects(),
		Cut:        out.Cut,
		Failed:     out.Failed,
	}}
	for _, i := range out.Reporters {
		r := &replies[i]
		rep.Reporters = append(rep.Reporters, rounds.Result{
			ClientID:   sel[i],
			NumSamples: r.NumSamples,
			Loss:       r.Loss,
			Summary:    r.UpdatedLabelCounts,
			Stats:      r.Stats,
		})
		if rep.Partial == nil {
			rep.Partial = a.partialBuf(len(r.Params))
		}
		n := float64(r.NumSamples)
		for j, v := range r.Params {
			rep.Partial[j] += n * v
		}
		rep.Samples += r.NumSamples
	}
	return rep
}

// execAsync runs one local buffered cycle: on resync (Params non-nil)
// the local driver's base is replaced with the root's fresh global,
// then one AsyncDriver round runs over the shard's clients and the
// resulting local model delta ships upward with the flushed reporters'
// metadata.
func (a *Agent) execAsync(cmd *rounds.ShardCmd) *Report {
	rep := &Report{ShardID: a.cfg.ShardID, Round: cmd.Round, ShardReport: rounds.ShardReport{
		Sessions:    a.cfg.Server.Sessions(),
		Reconnects:  a.cfg.Server.Reconnects(),
		BaseVersion: a.baseVersion,
	}}
	if a.local == nil {
		// The driver is built on the root's first resync push: the model
		// dimension arrives with the parameters, and the root always
		// resyncs on cycle 0, so at most the pre-handshake cycles of a
		// reconnect report empty.
		if cmd.Params == nil {
			return rep
		}
		if err := a.buildLocalDriver(len(cmd.Params)); err != nil {
			return rep
		}
	}
	if cmd.Params != nil {
		if err := a.local.SetGlobal(cmd.Params); err != nil {
			// Geometry disagreement with the root; report an empty cycle.
			rep.LocalClock = a.local.Clock()
			return rep
		}
		a.baseVersion = cmd.Version
		rep.BaseVersion = cmd.Version
	}
	copy(a.prev, a.local.Global())
	out := a.local.RunRound(a.localRound)
	a.localRound++
	rep.LocalClock = a.local.Clock()
	for _, local := range out.Failed {
		rep.Failed = append(rep.Failed, a.roster[local].ID)
	}
	for _, local := range out.Cut {
		rep.Cut = append(rep.Cut, a.roster[local].ID)
	}
	if !out.Aggregated {
		return rep
	}
	delta := a.partialBuf(len(a.prev))
	for i, v := range a.local.Global() {
		delta[i] = v - a.prev[i]
	}
	rep.Partial = delta
	for _, r := range a.local.Reports() {
		r.ClientID = a.roster[r.ClientID].ID
		rep.Reporters = append(rep.Reporters, r)
		rep.Samples += r.NumSamples
	}
	return rep
}

// buildLocalDriver assembles the async local runtime: the roster's
// flnet proxies under a dense local index, a derived-seed uniform
// strategy under the root's θ budget, and the shared buffered async
// driver over a dim-wide model.
func (a *Agent) buildLocalDriver(dim int) error {
	m := len(a.roster)
	budget := a.ack.Budget
	if budget < 1 {
		budget = 1
	}
	if budget > m {
		budget = m
	}
	cfg := rounds.Config{
		ClientsPerRound: budget,
		Tracer:          a.cfg.Tracer,
		Metrics:         a.cfg.Metrics,
	}
	acfg := rounds.AsyncConfig{
		BufferK:           a.ack.BufferK,
		StalenessExponent: a.ack.StalenessExponent,
	}
	if err := rounds.ValidateAsync(cfg, acfg); err != nil {
		return fmt.Errorf("shard %d: local async driver: %w", a.cfg.ShardID, err)
	}
	seed := stats.DeriveSeed(a.cfg.StrategySeed, uint64(a.cfg.ShardID))
	a.local = rounds.NewAsyncDriver(cfg, acfg, a.proxies, rounds.NewUniformStrategy(seed), make([]float64, dim))
	a.prev = make([]float64, dim)
	return nil
}
