package flnet

import (
	"fmt"
	"math"

	"haccs/internal/fleet"
	"haccs/internal/telemetry"
)

// EnvelopeErrorKind classifies a protocol violation.
type EnvelopeErrorKind string

const (
	// ErrEmptyEnvelope: no field of the union was set.
	ErrEmptyEnvelope EnvelopeErrorKind = "empty_envelope"
	// ErrAmbiguousEnvelope: more than one field of the union was set.
	ErrAmbiguousEnvelope EnvelopeErrorKind = "ambiguous_envelope"
	// ErrDuplicateRegister: a second Register arrived for a ClientID that
	// already has a live session.
	ErrDuplicateRegister EnvelopeErrorKind = "duplicate_register"
	// ErrUnexpectedMessage: a well-formed envelope carried the wrong
	// message type for the protocol state (e.g. a Register where a Reply
	// was due).
	ErrUnexpectedMessage EnvelopeErrorKind = "unexpected_message"
	// ErrWrongRound: a TrainReply for a different round than the one in
	// flight.
	ErrWrongRound EnvelopeErrorKind = "wrong_round"
	// ErrWrongClient: a TrainReply claiming a different ClientID than the
	// session it arrived on.
	ErrWrongClient EnvelopeErrorKind = "wrong_client"
	// ErrNotRegistered: a training dispatch targeted a client with no
	// live session (never registered, or dropped after an earlier error).
	ErrNotRegistered EnvelopeErrorKind = "not_registered"
	// ErrBadTraceContext: a half-set span context on a TrainRequest, or
	// a TrainReply span that is unsolicited, malformed, or belongs to a
	// different trace than the request carried.
	ErrBadTraceContext EnvelopeErrorKind = "bad_trace_context"
	// ErrBadClientStats: a TrainReply stats block violating the wire
	// contract — non-finite or negative wall time, non-positive sample
	// count, non-finite loss, or negative epochs.
	ErrBadClientStats EnvelopeErrorKind = "bad_client_stats"
	// ErrBadUpdate: a TrainReply whose model update cannot be aggregated
	// — wrong parameter dimension (refused on the frame's announced
	// count, before the vector is read), a non-positive sample count (its
	// FedAvg weight), or a NaN/Inf coordinate that would poison the
	// global model for the rest of the run.
	ErrBadUpdate EnvelopeErrorKind = "bad_update"
)

// EnvelopeError is the typed error for every protocol violation: a
// malformed envelope, an out-of-sequence message, or a reply that does
// not match the request in flight. The session that produced it is
// dropped; the round runtime then treats the client as failed rather
// than wedging the round.
type EnvelopeError struct {
	Kind EnvelopeErrorKind
	// ClientID is the offending session's client (-1 when unknown, e.g.
	// a malformed registration).
	ClientID int
	// Round is the round in flight (-1 outside a round).
	Round int
	// Detail carries human-readable context.
	Detail string
}

func (e *EnvelopeError) Error() string {
	msg := fmt.Sprintf("flnet: %s", e.Kind)
	if e.ClientID >= 0 {
		msg += fmt.Sprintf(" (client %d", e.ClientID)
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

// envelopeErr builds an EnvelopeError; clientID/round use -1 for "not
// applicable".
func envelopeErr(kind EnvelopeErrorKind, clientID, round int, detail string) *EnvelopeError {
	return &EnvelopeError{Kind: kind, ClientID: clientID, Round: round, Detail: detail}
}

// Check validates the union invariant: exactly one field set. It does
// not judge whether that message type is expected — that is protocol
// state the receiving loop owns.
func (env *Envelope) Check() error {
	n := 0
	if env.Register != nil {
		n++
	}
	if env.Request != nil {
		n++
	}
	if env.Reply != nil {
		n++
	}
	if env.Shutdown != nil {
		n++
	}
	switch n {
	case 1:
		return nil
	case 0:
		return envelopeErr(ErrEmptyEnvelope, -1, -1, "no message set")
	default:
		return envelopeErr(ErrAmbiguousEnvelope, -1, -1, fmt.Sprintf("%d messages set", n))
	}
}

// checkReply validates a decoded envelope as the reply to a
// TrainRequest sent to clientID for round carrying span context sc.
func checkReply(env *Envelope, clientID, round int, sc telemetry.SpanContext) (*TrainReply, error) {
	if err := env.Check(); err != nil {
		ee := err.(*EnvelopeError)
		ee.ClientID, ee.Round = clientID, round
		return nil, ee
	}
	if env.Reply == nil {
		return nil, envelopeErr(ErrUnexpectedMessage, clientID, round,
			"expected TrainReply")
	}
	if env.Reply.Round != round {
		return nil, envelopeErr(ErrWrongRound, clientID, round,
			fmt.Sprintf("reply for round %d", env.Reply.Round))
	}
	if env.Reply.ClientID != clientID {
		return nil, envelopeErr(ErrWrongClient, clientID, round,
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
		return envelopeErr(ErrBadUpdate, reply.ClientID, reply.Round,
			fmt.Sprintf("update has %d parameters, model has %d", len(reply.Params), dim))
	}
	if reply.NumSamples <= 0 {
		return envelopeErr(ErrBadUpdate, reply.ClientID, reply.Round,
			fmt.Sprintf("update sample count %d is not positive", reply.NumSamples))
	}
	for i, v := range reply.Params {
		// v-v is 0 for every finite v and NaN for NaN and ±Inf.
		if v-v != 0 {
			return envelopeErr(ErrBadUpdate, reply.ClientID, reply.Round,
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
		return envelopeErr(ErrBadTraceContext, clientID, round,
			"unsolicited span on reply (request carried no trace)")
	}
	if ws.SpanID == 0 {
		return envelopeErr(ErrBadTraceContext, clientID, round,
			"reply span has zero span ID")
	}
	if ws.TraceID != sc.TraceID {
		return envelopeErr(ErrBadTraceContext, clientID, round,
			fmt.Sprintf("reply span trace %x does not match request trace %x", ws.TraceID, sc.TraceID))
	}
	if ws.ParentID != sc.SpanID {
		return envelopeErr(ErrBadTraceContext, clientID, round,
			fmt.Sprintf("reply span parent %x does not match request span %x", ws.ParentID, sc.SpanID))
	}
	if math.IsNaN(ws.DurSec) || math.IsInf(ws.DurSec, 0) || ws.DurSec < 0 {
		return envelopeErr(ErrBadTraceContext, clientID, round,
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
		return envelopeErr(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats wall time %v is not a finite non-negative number", st.TrainWallSec))
	}
	if st.Samples <= 0 {
		return envelopeErr(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats sample count %d is not positive", st.Samples))
	}
	if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
		return envelopeErr(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats loss %v is not finite", st.Loss))
	}
	if st.Epochs < 0 {
		return envelopeErr(ErrBadClientStats, clientID, round,
			fmt.Sprintf("stats epochs %d is negative", st.Epochs))
	}
	return nil
}
