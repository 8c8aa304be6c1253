package flnet

import (
	"fmt"
	"math"

	"haccs/internal/fleet"
	"haccs/internal/session"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// hop names the client hop in its protocol errors.
var hop = session.Hop{Name: "flnet", Peer: "client"}

// The client hop's own protocol-violation kinds, beside the shared ones
// in internal/session (empty/ambiguous envelope, unexpected message,
// wrong round).
const (
	// ErrDuplicateRegister: a second Register arrived for a ClientID that
	// already has a live session.
	ErrDuplicateRegister session.ErrorKind = "duplicate_register"
	// ErrWrongClient: a TrainReply claiming a different ClientID than the
	// session it arrived on.
	ErrWrongClient session.ErrorKind = "wrong_client"
	// ErrNotRegistered: a training dispatch targeted a client with no
	// live session (never registered, or dropped after an earlier error).
	ErrNotRegistered session.ErrorKind = "not_registered"
	// ErrBadTraceContext: a half-set span context on a TrainRequest, or
	// a TrainReply span that is unsolicited, malformed, or belongs to a
	// different trace than the request carried.
	ErrBadTraceContext session.ErrorKind = "bad_trace_context"
	// ErrBadClientStats: a TrainReply stats block violating the wire
	// contract — non-finite or negative wall time, non-positive sample
	// count, non-finite loss, or negative epochs.
	ErrBadClientStats session.ErrorKind = "bad_client_stats"
	// ErrBadUpdate: a TrainReply whose model update cannot be aggregated
	// — wrong parameter dimension (refused on the frame's announced
	// count, before the vector is read), a non-positive sample count (its
	// FedAvg weight), or a NaN/Inf coordinate that would poison the
	// global model for the rest of the run.
	ErrBadUpdate session.ErrorKind = "bad_update"
	// ErrBadRegister: a Register whose latency estimate is NaN, infinite
	// or negative — a claim that could steer or collapse selection.
	ErrBadRegister session.ErrorKind = "bad_register"
)

// Check validates the union invariant: exactly one field set.
func (env *Envelope) Check() error {
	return hop.OneOf(env.Register != nil, env.Request != nil, env.Reply != nil, env.Shutdown != nil)
}

// checkReply validates a decoded envelope as the reply to a
// TrainRequest sent to clientID for round carrying span context sc.
func checkReply(env *Envelope, clientID, round int, sc telemetry.SpanContext) (*TrainReply, error) {
	if err := env.Check(); err != nil {
		pe := err.(*session.ProtocolError)
		pe.PeerID, pe.Round = clientID, round
		return nil, pe
	}
	if env.Reply == nil {
		return nil, hop.Err(session.ErrUnexpectedMessage, clientID, round,
			"expected TrainReply")
	}
	if env.Reply.Round != round {
		return nil, hop.Err(session.ErrWrongRound, clientID, round,
			fmt.Sprintf("reply for round %d", env.Reply.Round))
	}
	if env.Reply.ClientID != clientID {
		return nil, hop.Err(ErrWrongClient, clientID, round,
			fmt.Sprintf("reply claims client %d", env.Reply.ClientID))
	}
	if err := checkWireSpan(env.Reply.TrainSpan, clientID, round, sc); err != nil {
		return nil, err
	}
	if err := checkClientStats(env.Reply.Stats, clientID, round); err != nil {
		return nil, err
	}
	return env.Reply, nil
}

// checkUpdate validates the model update of an otherwise well-formed
// reply against the dimension of the parameters it was trained from —
// the checks FedAvg would otherwise panic on, plus finiteness.
func checkUpdate(reply *TrainReply, dim int) error {
	if len(reply.Params) != dim {
		return hop.Err(ErrBadUpdate, reply.ClientID, reply.Round,
			fmt.Sprintf("update has %d parameters, model has %d", len(reply.Params), dim))
	}
	if reply.NumSamples <= 0 {
		return hop.Err(ErrBadUpdate, reply.ClientID, reply.Round,
			fmt.Sprintf("update sample count %d is not positive", reply.NumSamples))
	}
	if stats.AllFinite(reply.Params) {
		return nil
	}
	for i, v := range reply.Params {
		// v-v is 0 for every finite v and NaN for NaN and ±Inf.
		if v-v != 0 {
			return hop.Err(ErrBadUpdate, reply.ClientID, reply.Round,
				fmt.Sprintf("update coordinate %d is %v", i, v))
		}
	}
	return nil
}

// checkWireSpan validates a reply's piggybacked span against the span
// context the request carried. A nil span is always fine (span shipping
// is optional); a present one must have been solicited, belong to the
// request's trace, parent under the request's span, and carry a sane
// measurement — anything else is a protocol violation that drops the
// session, so a misbehaving client cannot corrupt the coordinator's
// trace tree.
func checkWireSpan(ws *WireSpan, clientID, round int, sc telemetry.SpanContext) error {
	if ws == nil {
		return nil
	}
	if sc.Zero() {
		return hop.Err(ErrBadTraceContext, clientID, round,
			"unsolicited span on reply (request carried no trace)")
	}
	if ws.SpanID == 0 {
		return hop.Err(ErrBadTraceContext, clientID, round,
			"reply span has zero span ID")
	}
	if ws.TraceID != sc.TraceID {
		return hop.Err(ErrBadTraceContext, clientID, round,
			fmt.Sprintf("reply span trace %x does not match request trace %x", ws.TraceID, sc.TraceID))
	}
	if ws.ParentID != sc.SpanID {
		return hop.Err(ErrBadTraceContext, clientID, round,
			fmt.Sprintf("reply span parent %x does not match request span %x", ws.ParentID, sc.SpanID))
	}
	if math.IsNaN(ws.DurSec) || math.IsInf(ws.DurSec, 0) || ws.DurSec < 0 {
		return hop.Err(ErrBadTraceContext, clientID, round,
			fmt.Sprintf("reply span duration %v is not a finite non-negative number", ws.DurSec))
	}
	return nil
}

// checkClientStats validates a reply's self-reported stats block the
// same way checkWireSpan validates the piggybacked span: a nil block is
// always fine (stats are optional), a present one must carry sane
// measurements — anything else is a protocol violation that drops the
// session, so a misbehaving client cannot poison the coordinator's
// fleet health registry.
func checkClientStats(st *fleet.ClientStats, clientID, round int) error {
	if st == nil {
		return nil
	}
	if math.IsNaN(st.TrainWallSec) || math.IsInf(st.TrainWallSec, 0) || st.TrainWallSec < 0 {
		return hop.Err(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats wall time %v is not a finite non-negative number", st.TrainWallSec))
	}
	if st.Samples <= 0 {
		return hop.Err(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats sample count %d is not positive", st.Samples))
	}
	if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
		return hop.Err(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats loss %v is not finite", st.Loss))
	}
	if st.Epochs < 0 {
		return hop.Err(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats epochs %d is negative", st.Epochs))
	}
	return nil
}
