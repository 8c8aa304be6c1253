package shard

import (
	"fmt"
	"math"

	"haccs/internal/rounds"
	"haccs/internal/session"
)

// The shard↔root wire protocol is flnet's client↔coordinator protocol
// one level up the tree, over the same session layer (internal/session):
// its framing (session.Codec — gob control envelope, Cmd.Params and
// Report.Partial as raw float64 trailers), a single envelope union per
// stream, typed errors for every violation, and session drop (never a
// wedged round) as the failure response. One Hello from the shard, one
// Ack from the root, then an alternating stream of Cmd/Report pairs
// driven by the root, terminated by Bye.

// hop names the shard hop in its protocol errors.
var hop = session.Hop{Name: "shard", Peer: "shard"}

// The shard hop's own protocol-violation kinds, beside the shared ones
// in internal/session (empty/ambiguous envelope, unexpected message,
// wrong round).
const (
	// ErrDuplicateShard: a second Hello arrived for a shard ID that
	// already holds a live session during initial accept.
	ErrDuplicateShard session.ErrorKind = "duplicate_shard"
	// ErrBadHello: a Hello with an invalid roster or malformed sketch
	// representatives.
	ErrBadHello session.ErrorKind = "bad_hello"
	// ErrRosterMismatch: a reconnecting shard announced a different
	// roster than its original Hello — the root's partition is fixed for
	// the run, so the session is refused.
	ErrRosterMismatch session.ErrorKind = "roster_mismatch"
	// ErrNotConnected: a round dispatch targeted a shard with no live
	// session.
	ErrNotConnected session.ErrorKind = "not_connected"
	// ErrWrongShard: a Report claiming a different shard ID than the
	// session it arrived on.
	ErrWrongShard session.ErrorKind = "wrong_shard"
	// ErrBadReport: a Report violating the wire contract (a partial that
	// is neither empty nor of the model dimension — refused on its
	// announced length, before it is read — or non-finite, negative
	// counters, an inconsistent reporter block, or a reporter carrying
	// parameters).
	ErrBadReport session.ErrorKind = "bad_report"
)

// Hello is the shard's first message: its identity, the roster slice
// it owns (with latency estimates), and sketch representatives of its
// clients' label distributions so the root can plan heterogeneity-
// aware per-shard selection budgets without seeing every client.
type Hello struct {
	ShardID int
	// Clients is the shard's roster slice: global IDs and expected
	// round latencies.
	Clients []rounds.ShardClient
	// SketchDim is the width of each representative vector (0 when the
	// shard ships no representatives).
	SketchDim int
	// Reps are the shard-local ε-net representative sketches; RepCounts
	// holds how many of the shard's clients attach to each.
	Reps      [][]float64
	RepCounts []int
	// Sessions is the shard's live client-session count at handshake.
	Sessions int
}

// check validates a Hello's internal consistency.
func (h *Hello) check() error {
	if h.ShardID < 0 {
		return hop.Err(ErrBadHello, h.ShardID, -1, "negative shard ID")
	}
	if len(h.Clients) == 0 {
		return hop.Err(ErrBadHello, h.ShardID, -1, "empty roster")
	}
	for _, c := range h.Clients {
		if c.ID < 0 {
			return hop.Err(ErrBadHello, h.ShardID, -1, fmt.Sprintf("negative client ID %d", c.ID))
		}
		if c.Latency < 0 || math.IsNaN(c.Latency) || math.IsInf(c.Latency, 0) {
			return hop.Err(ErrBadHello, h.ShardID, -1, fmt.Sprintf("client %d latency %v", c.ID, c.Latency))
		}
	}
	if len(h.Reps) != len(h.RepCounts) {
		return hop.Err(ErrBadHello, h.ShardID, -1,
			fmt.Sprintf("%d representatives with %d counts", len(h.Reps), len(h.RepCounts)))
	}
	for i, rep := range h.Reps {
		if len(rep) != h.SketchDim {
			return hop.Err(ErrBadHello, h.ShardID, -1,
				fmt.Sprintf("representative %d has dim %d, announced %d", i, len(rep), h.SketchDim))
		}
		if h.RepCounts[i] <= 0 {
			return hop.Err(ErrBadHello, h.ShardID, -1,
				fmt.Sprintf("representative %d covers %d clients", i, h.RepCounts[i]))
		}
	}
	return nil
}

// Ack is the root's reply to a Hello: everything the shard needs to
// run its half of the protocol. The root computes it once the full
// shard set has said hello (the θ-budget plan needs every shard's
// representatives) and replays it, with a fresh NextRound, to shards
// that reconnect mid-run.
type Ack struct {
	// Mode is the round runtime ("sync" or "async", rounds.Mode values).
	Mode string
	// Deadline is the sync straggler deadline in virtual seconds; the
	// shard must apply exactly the root's deadline arithmetic (the root
	// cross-checks every report against its own latency table).
	Deadline float64
	// Budget is this shard's async local selection budget θ_s, from the
	// root's sketch-clustering plan. Unused in sync mode (the root
	// selects globally).
	Budget int
	// ResyncEvery, MaxStaleness, StalenessExponent and BufferK tune the
	// shard's async local driver; ignored in sync mode.
	ResyncEvery       int
	MaxStaleness      int
	StalenessExponent float64
	BufferK           int
	// NextRound is where the root's round sequence continues — 0 on a
	// fresh run, the checkpoint round after a crash-restore.
	NextRound int
}

// Report is the shard's reply to a Cmd: the driver's report plus the
// shard/round echo the root validates. Reporters carry metadata only —
// their Params stay nil, since parameters cross the tree summed into
// the partial.
type Report struct {
	ShardID int
	Round   int
	rounds.ShardReport
}

// Bye ends a shard session.
type Bye struct{ Reason string }

// Envelope wraps every shard↔root message so one stream carries all
// types.
type Envelope struct {
	Hello  *Hello
	Ack    *Ack
	Cmd    *rounds.ShardCmd
	Report *Report
	Bye    *Bye
}

// Vector implements session.Vectored: a Cmd's Params and a Report's
// Partial travel as the frame's raw trailer, never through gob.
func (e Envelope) Vector() *[]float64 {
	switch {
	case e.Cmd != nil:
		return &e.Cmd.Params
	case e.Report != nil:
		return &e.Report.Partial
	}
	return nil
}

// Check validates the union invariant: exactly one field set.
func (e *Envelope) Check() error {
	return hop.OneOf(e.Hello != nil, e.Ack != nil, e.Cmd != nil, e.Report != nil, e.Bye != nil)
}

// checkReport validates a Report against the Cmd in flight: correct
// session and round, finite partial, consistent counters. The deeper
// semantic validation (cut sets against the root's latency table)
// happens in rounds.HierDriver; this is the transport-level contract
// whose violation drops the session.
func checkReport(env *Envelope, shardID, round int) (*Report, error) {
	if err := env.Check(); err != nil {
		pe := err.(*session.ProtocolError)
		pe.PeerID, pe.Round = shardID, round
		return nil, pe
	}
	rep := env.Report
	if rep == nil {
		return nil, hop.Err(session.ErrUnexpectedMessage, shardID, round, "expected Report")
	}
	if rep.ShardID != shardID {
		return nil, hop.Err(ErrWrongShard, shardID, round, fmt.Sprintf("report claims shard %d", rep.ShardID))
	}
	if rep.Round != round {
		return nil, hop.Err(session.ErrWrongRound, shardID, round, fmt.Sprintf("report for round %d", rep.Round))
	}
	if rep.Samples < 0 || rep.Sessions < 0 || rep.Reconnects < 0 {
		return nil, hop.Err(ErrBadReport, shardID, round, "negative counter")
	}
	if math.IsNaN(rep.LocalClock) || rep.LocalClock < 0 {
		return nil, hop.Err(ErrBadReport, shardID, round, fmt.Sprintf("local clock %v", rep.LocalClock))
	}
	for _, v := range rep.Partial {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, hop.Err(ErrBadReport, shardID, round, "non-finite partial")
		}
	}
	for _, r := range rep.Reporters {
		if r.NumSamples <= 0 {
			return nil, hop.Err(ErrBadReport, shardID, round,
				fmt.Sprintf("reporter %d with %d samples", r.ClientID, r.NumSamples))
		}
		if math.IsNaN(r.Loss) {
			return nil, hop.Err(ErrBadReport, shardID, round, fmt.Sprintf("reporter %d loss NaN", r.ClientID))
		}
		if len(r.Params) != 0 {
			return nil, hop.Err(ErrBadReport, shardID, round, fmt.Sprintf("reporter %d carries %d parameters", r.ClientID, len(r.Params)))
		}
	}
	return rep, nil
}
