package shard

import (
	"fmt"
	"math"

	"haccs/internal/fleet"
	"haccs/internal/rounds"
)

// The shard↔root wire protocol is flnet's client↔coordinator protocol
// one level up the tree, over the same session layer (internal/session):
// its framing (session.Codec — gob control envelope, Cmd.Params and
// Report.Partial as raw float64 trailers), a single envelope union per
// stream, typed errors for every violation, and session drop (never a
// wedged round) as the failure response. One Hello from the shard, one
// Ack from the root, then an alternating stream of Cmd/Report pairs
// driven by the root, terminated by Bye.

// ProtocolErrorKind classifies a shard-protocol violation.
type ProtocolErrorKind string

const (
	// ErrEmptyEnvelope: no field of the union was set.
	ErrEmptyEnvelope ProtocolErrorKind = "empty_envelope"
	// ErrAmbiguousEnvelope: more than one field of the union was set.
	ErrAmbiguousEnvelope ProtocolErrorKind = "ambiguous_envelope"
	// ErrUnexpectedMessage: a well-formed envelope carried the wrong
	// message type for the protocol state (e.g. a Report where a Hello
	// was due).
	ErrUnexpectedMessage ProtocolErrorKind = "unexpected_message"
	// ErrDuplicateShard: a second Hello arrived for a shard ID that
	// already holds a live session during initial accept.
	ErrDuplicateShard ProtocolErrorKind = "duplicate_shard"
	// ErrBadHello: a Hello with an invalid roster or malformed sketch
	// representatives.
	ErrBadHello ProtocolErrorKind = "bad_hello"
	// ErrRosterMismatch: a reconnecting shard announced a different
	// roster than its original Hello — the root's partition is fixed for
	// the run, so the session is refused.
	ErrRosterMismatch ProtocolErrorKind = "roster_mismatch"
	// ErrNotConnected: a round dispatch targeted a shard with no live
	// session.
	ErrNotConnected ProtocolErrorKind = "not_connected"
	// ErrWrongRound: a Report for a different round than the Cmd in
	// flight.
	ErrWrongRound ProtocolErrorKind = "wrong_round"
	// ErrWrongShard: a Report claiming a different shard ID than the
	// session it arrived on.
	ErrWrongShard ProtocolErrorKind = "wrong_shard"
	// ErrBadReport: a Report violating the wire contract (a partial that
	// is neither empty nor of the model dimension — refused on its
	// announced length, before it is read — or non-finite, negative
	// counters, inconsistent reporter block).
	ErrBadReport ProtocolErrorKind = "bad_report"
)

// ProtocolError is the typed error for shard-protocol violations,
// mirroring flnet.EnvelopeError. The session that produced it is
// dropped; the root then treats the shard as failed for the round
// (its clients cut, not dead) rather than wedging the barrier.
type ProtocolError struct {
	Kind ProtocolErrorKind
	// ShardID is the offending session's shard (-1 when unknown).
	ShardID int
	// Round is the round in flight (-1 outside a round).
	Round int
	// Detail carries human-readable context.
	Detail string
}

func (e *ProtocolError) Error() string {
	msg := fmt.Sprintf("shard: %s", e.Kind)
	if e.ShardID >= 0 {
		msg += fmt.Sprintf(" (shard %d", e.ShardID)
		if e.Round >= 0 {
			msg += fmt.Sprintf(", round %d", e.Round)
		}
		msg += ")"
	} else if e.Round >= 0 {
		msg += fmt.Sprintf(" (round %d)", e.Round)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// protoErr builds a ProtocolError; shardID/round use -1 for "not
// applicable".
func protoErr(kind ProtocolErrorKind, shardID, round int, detail string) *ProtocolError {
	return &ProtocolError{Kind: kind, ShardID: shardID, Round: round, Detail: detail}
}

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
		return protoErr(ErrBadHello, h.ShardID, -1, "negative shard ID")
	}
	if len(h.Clients) == 0 {
		return protoErr(ErrBadHello, h.ShardID, -1, "empty roster")
	}
	for _, c := range h.Clients {
		if c.ID < 0 {
			return protoErr(ErrBadHello, h.ShardID, -1, fmt.Sprintf("negative client ID %d", c.ID))
		}
		if c.Latency < 0 || math.IsNaN(c.Latency) || math.IsInf(c.Latency, 0) {
			return protoErr(ErrBadHello, h.ShardID, -1, fmt.Sprintf("client %d latency %v", c.ID, c.Latency))
		}
	}
	if len(h.Reps) != len(h.RepCounts) {
		return protoErr(ErrBadHello, h.ShardID, -1,
			fmt.Sprintf("%d representatives with %d counts", len(h.Reps), len(h.RepCounts)))
	}
	for i, rep := range h.Reps {
		if len(rep) != h.SketchDim {
			return protoErr(ErrBadHello, h.ShardID, -1,
				fmt.Sprintf("representative %d has dim %d, announced %d", i, len(rep), h.SketchDim))
		}
		if h.RepCounts[i] <= 0 {
			return protoErr(ErrBadHello, h.ShardID, -1,
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

// Cmd is one root→shard work order (the wire form of rounds.ShardCmd).
type Cmd struct {
	Round int
	// Params is the global snapshot to train from; nil between async
	// resyncs.
	Params []float64
	// Selected are this shard's selected clients in global selection
	// order (sync; nil in async, where the shard selects locally).
	Selected []int
	// Version is the root model version Params carries.
	Version int
}

// WireResult is one reporter's metadata riding back on a Report —
// everything rounds.Result carries except the parameters, which only
// cross the tree summed into the partial.
type WireResult struct {
	ClientID   int
	NumSamples int
	Loss       float64
	// Summary, when non-nil, is a refreshed P(y) histogram the client
	// piggybacked (§IV-C); the root forwards it to the scheduler.
	Summary []float64
	// Stats, when non-nil, is the client's self-reported training
	// stats block for the root's fleet registry.
	Stats *fleet.ClientStats
}

// Report is the shard's reply to a Cmd (the wire form of
// rounds.ShardReport, plus the shard/round echo the root validates).
type Report struct {
	ShardID int
	Round   int
	// Partial is the unnormalized sample-weighted partial aggregate
	// (sync: Σ n_r·w_r over reporters; async: the local model delta for
	// the cycle). Samples is the total weight behind it.
	Partial []float64
	Samples int
	// Reporters carries per-reporter metadata in shard selection order.
	Reporters []WireResult
	// Cut are selected clients discarded at the deadline; Failed are
	// clients whose transport died mid-round (the root marks them dead).
	Cut    []int
	Failed []int
	// LocalClock is the shard driver's virtual clock (async; 0 sync).
	LocalClock float64
	// BaseVersion is the root version of the shard's training base.
	BaseVersion int
	// Sessions/Reconnects are the shard's client-facing transport
	// counters, piggybacked for the root's merged fleet gauges.
	Sessions   int
	Reconnects int
}

// Bye ends a shard session.
type Bye struct{ Reason string }

// Envelope wraps every shard↔root message so one stream carries all
// types.
type Envelope struct {
	Hello  *Hello
	Ack    *Ack
	Cmd    *Cmd
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

// Check validates the one-of-union invariant: exactly one field set.
func (e *Envelope) Check() error {
	n := 0
	if e.Hello != nil {
		n++
	}
	if e.Ack != nil {
		n++
	}
	if e.Cmd != nil {
		n++
	}
	if e.Report != nil {
		n++
	}
	if e.Bye != nil {
		n++
	}
	switch n {
	case 1:
		return nil
	case 0:
		return protoErr(ErrEmptyEnvelope, -1, -1, "no message in envelope")
	default:
		return protoErr(ErrAmbiguousEnvelope, -1, -1, fmt.Sprintf("%d messages in one envelope", n))
	}
}

// checkReport validates a Report against the Cmd in flight: correct
// session and round, finite partial, consistent counters. The deeper
// semantic validation (cut sets against the root's latency table)
// happens in rounds.HierDriver; this is the transport-level contract
// whose violation drops the session.
func checkReport(env *Envelope, shardID, round int) (*Report, error) {
	if err := env.Check(); err != nil {
		pe := err.(*ProtocolError)
		pe.ShardID, pe.Round = shardID, round
		return nil, pe
	}
	rep := env.Report
	if rep == nil {
		return nil, protoErr(ErrUnexpectedMessage, shardID, round, "expected Report")
	}
	if rep.ShardID != shardID {
		return nil, protoErr(ErrWrongShard, shardID, round, fmt.Sprintf("report claims shard %d", rep.ShardID))
	}
	if rep.Round != round {
		return nil, protoErr(ErrWrongRound, shardID, round, fmt.Sprintf("report for round %d", rep.Round))
	}
	if rep.Samples < 0 || rep.Sessions < 0 || rep.Reconnects < 0 {
		return nil, protoErr(ErrBadReport, shardID, round, "negative counter")
	}
	if math.IsNaN(rep.LocalClock) || rep.LocalClock < 0 {
		return nil, protoErr(ErrBadReport, shardID, round, fmt.Sprintf("local clock %v", rep.LocalClock))
	}
	for _, v := range rep.Partial {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, protoErr(ErrBadReport, shardID, round, "non-finite partial")
		}
	}
	for _, r := range rep.Reporters {
		if r.NumSamples <= 0 {
			return nil, protoErr(ErrBadReport, shardID, round,
				fmt.Sprintf("reporter %d with %d samples", r.ClientID, r.NumSamples))
		}
		if math.IsNaN(r.Loss) {
			return nil, protoErr(ErrBadReport, shardID, round, fmt.Sprintf("reporter %d loss NaN", r.ClientID))
		}
	}
	return rep, nil
}

// toShardReport converts a wire Report into the driver's in-memory
// form.
func toShardReport(rep *Report) *rounds.ShardReport {
	out := &rounds.ShardReport{
		Partial:     rep.Partial,
		Samples:     rep.Samples,
		Cut:         rep.Cut,
		Failed:      rep.Failed,
		LocalClock:  rep.LocalClock,
		BaseVersion: rep.BaseVersion,
		Sessions:    rep.Sessions,
		Reconnects:  rep.Reconnects,
	}
	if len(rep.Reporters) > 0 {
		out.Reporters = make([]rounds.Result, len(rep.Reporters))
		for i, r := range rep.Reporters {
			out.Reporters[i] = rounds.Result{
				ClientID:   r.ClientID,
				NumSamples: r.NumSamples,
				Loss:       r.Loss,
				Summary:    r.Summary,
				Stats:      r.Stats,
			}
		}
	}
	return out
}

// sameRoster reports whether two Hello rosters describe the same
// clients with the same latencies (the reconnect validation: a shard
// may not change its slice mid-run).
func sameRoster(a, b []rounds.ShardClient) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
