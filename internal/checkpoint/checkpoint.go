// Package checkpoint provides durable run-state snapshots with
// bit-identical crash recovery. A Snapshot is a versioned bundle of
// opaque per-component payloads — the global model, each selection
// strategy's mutable state, the round driver's clock, the dropout
// schedule — captured through the Snapshotter interface and persisted
// by a file-backed Store (atomic temp-file + rename writes, CRC32
// checksums in a JSON manifest, bounded retention, and fallback past
// corrupt snapshots to the newest good one).
//
// The contract that makes resume exact rather than approximate: every
// stateful layer of a run implements Snapshotter, all remaining
// randomness is either derived statelessly from (seed, round) pairs or
// carried inside a snapshotted stats.RNG stream, and restoring a
// Snapshot into a freshly constructed run (same config, same roster)
// reproduces the uninterrupted trajectory bit for bit — pinned by
// experiments.TestResumeBitIdentical.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// FormatVersion is the snapshot format version this build writes. Decode
// also reads version 1, whose model payload was gob, and upgrades it.
const FormatVersion = 2

// Snapshotter is implemented by every stateful layer that participates
// in checkpointing. SnapshotState serializes the component's mutable
// state; RestoreState overwrites it from a previously captured payload.
// RestoreState is only called on a component that has been constructed
// and initialized exactly as it was for the run that produced the
// snapshot (same config, same roster) — implementations validate what
// they can (lengths, seeds) and return an error on mismatch rather
// than restoring a half-compatible state.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// Component pairs a Snapshotter with the stable name it is stored
// under inside a Snapshot.
type Component struct {
	Name string
	S    Snapshotter
}

// ComponentLister is implemented by layers that contribute additional
// named components beyond their own Snapshotter — e.g. a strategy whose
// optional clustering backend carries separate state. Engines append
// ExtraComponents to their component list; an implementation that has
// nothing extra to add for its current configuration returns nil, so
// snapshots of runs without the optional layer stay readable by builds
// that predate it.
type ComponentLister interface {
	ExtraComponents() []Component
}

// Snapshot is one captured run state: the number of rounds completed
// when it was taken plus each component's opaque payload.
type Snapshot struct {
	// Version is the snapshot format version (FormatVersion).
	Version int
	// Round is the number of rounds completed at capture time; a
	// resumed run continues with round index Round.
	Round int
	// Components maps component name to its serialized state.
	Components map[string][]byte
}

// Capture snapshots every component into a new Snapshot taken after
// roundsDone completed rounds.
func Capture(roundsDone int, comps []Component) (*Snapshot, error) {
	snap := &Snapshot{Version: FormatVersion, Round: roundsDone, Components: make(map[string][]byte, len(comps))}
	for _, c := range comps {
		if _, dup := snap.Components[c.Name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate component %q", c.Name)
		}
		data, err := c.S.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: snapshot component %q: %w", c.Name, err)
		}
		snap.Components[c.Name] = data
	}
	return snap, nil
}

// Restore replays the snapshot into every component. Each component
// listed must be present in the snapshot; payloads for components not
// listed are ignored (a run configured without an optional layer can
// still consume a snapshot that captured one, but never the reverse).
func (s *Snapshot) Restore(comps []Component) error {
	if s.Version != FormatVersion {
		return fmt.Errorf("checkpoint: snapshot format version %d, this build reads %d", s.Version, FormatVersion)
	}
	for _, c := range comps {
		data, ok := s.Components[c.Name]
		if !ok {
			return fmt.Errorf("checkpoint: snapshot has no %q component (components: %d)", c.Name, len(s.Components))
		}
		if err := c.S.RestoreState(data); err != nil {
			return fmt.Errorf("checkpoint: restore component %q: %w", c.Name, err)
		}
	}
	return nil
}

// EncodeGob gob-encodes one component's state struct; label names the
// payload in the error (e.g. "rounds: driver state").
func EncodeGob(label string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("%s: gob encode: %w", label, err)
	}
	return buf.Bytes(), nil
}

// DecodeGob parses an EncodeGob payload into v (a pointer).
func DecodeGob(label string, data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("%s: gob decode: %w", label, err)
	}
	return nil
}

// Encode serializes the snapshot as a gob stream.
func (s *Snapshot) Encode() ([]byte, error) {
	return EncodeGob("checkpoint: snapshot", s)
}

// Decode parses a gob-encoded snapshot and validates its format
// version. A version 1 snapshot comes back in the current form, so every
// Snapshotter reads one form.
func Decode(data []byte) (*Snapshot, error) {
	// gob sizes a nil map by the count the stream announces; one that
	// exists only grows with the entries actually present.
	snap := Snapshot{Components: map[string][]byte{}}
	if err := DecodeGob("checkpoint: snapshot", data, &snap); err != nil {
		return nil, err
	}
	switch snap.Version {
	case FormatVersion:
	case 1:
		if err := upgradeV1(&snap); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("checkpoint: snapshot format version %d, this build reads 1 and %d", snap.Version, FormatVersion)
	}
	return &snap, nil
}
