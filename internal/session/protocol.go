package session

import (
	"errors"
	"fmt"
)

// ErrorKind classifies a protocol violation. The kinds both hops share
// are declared here; each hop declares its own next to its messages.
type ErrorKind string

const (
	// ErrEmptyEnvelope: no field of the envelope union was set.
	ErrEmptyEnvelope ErrorKind = "empty_envelope"
	// ErrAmbiguousEnvelope: more than one field of the union was set.
	ErrAmbiguousEnvelope ErrorKind = "ambiguous_envelope"
	// ErrUnexpectedMessage: a well-formed envelope carried the wrong
	// message type for the protocol state (e.g. a reply where a
	// handshake was due).
	ErrUnexpectedMessage ErrorKind = "unexpected_message"
	// ErrWrongRound: a reply for a different round than the request in
	// flight.
	ErrWrongRound ErrorKind = "wrong_round"
)

// Hop names one network hop in its protocol errors: Name prefixes the
// message ("flnet", "shard") and Peer is the noun for the far end
// ("client", "shard").
type Hop struct{ Name, Peer string }

// ProtocolError is the typed error for every protocol violation on
// either hop: a malformed envelope, an out-of-sequence message, or a
// reply that does not match the request in flight. The session that
// produced it is dropped (the package's drop rule); the round runtime
// then treats the peer as failed for the round rather than wedging it.
type ProtocolError struct {
	Hop  Hop
	Kind ErrorKind
	// PeerID is the offending session's peer (-1 when unknown, e.g. a
	// malformed handshake).
	PeerID int
	// Round is the round in flight (-1 outside a round).
	Round int
	// Detail carries human-readable context.
	Detail string
}

func (e *ProtocolError) Error() string {
	msg := fmt.Sprintf("%s: %s", e.Hop.Name, e.Kind)
	if e.PeerID >= 0 {
		msg += fmt.Sprintf(" (%s %d", e.Hop.Peer, e.PeerID)
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

// Err builds a ProtocolError on hop h; peerID and round use -1 for "not
// applicable".
func (h Hop) Err(kind ErrorKind, peerID, round int, detail string) *ProtocolError {
	return &ProtocolError{Hop: h, Kind: kind, PeerID: peerID, Round: round, Detail: detail}
}

// RefusalKind is the kind label a hop counts a refused registration
// under: the protocol error's kind, or "handshake" for a first frame
// that never arrived whole (silence, EOF, undecodable bytes).
func RefusalKind(err error) string {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return string(pe.Kind)
	}
	return "handshake"
}

// OneOf checks an envelope union's invariant — exactly one field set —
// given, per field, whether it is set. It does not judge whether that
// message is expected: that is protocol state the receiving loop owns.
func (h Hop) OneOf(set ...bool) error {
	n := 0
	for _, s := range set {
		if s {
			n++
		}
	}
	switch n {
	case 1:
		return nil
	case 0:
		return h.Err(ErrEmptyEnvelope, -1, -1, "no message in envelope")
	default:
		return h.Err(ErrAmbiguousEnvelope, -1, -1, fmt.Sprintf("%d messages in one envelope", n))
	}
}
