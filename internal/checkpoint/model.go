package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"haccs/internal/nn"
	"haccs/internal/session"
)

// ModelComponent is the name every run stores its Model under. Decode
// knows it: that is the one payload whose form changed between format
// versions.
const ModelComponent = "model"

// ErrCorruptModel marks a model payload that could not be decoded:
// truncated, torn, or bytes that were never a model payload. Match with
// errors.Is.
var ErrCorruptModel = errors.New("checkpoint: corrupt or truncated model payload")

// Model is the Snapshotter for a flat global parameter vector, stamped
// with its architecture so restores are validated. Arch may be the zero
// value when the owning transport does not know the model family (e.g. a
// generic flnet coordinator); validation then reduces to the parameter
// count.
type Model struct {
	// Arch stamps and validates the payload.
	Arch nn.Arch
	// Params returns the live parameter vector (read-only view).
	Params func() []float64
	// SetParams overwrites the live parameter vector from a restored
	// copy of equal length.
	SetParams func(params []float64) error
}

// modelFrame is the model payload: one message in the wire's own format
// (session.Codec) — gob of the arch stamp, then count:u32 and the
// parameters as little-endian float64s.
type modelFrame struct {
	Arch   nn.Arch
	Params []float64
}

// Vector implements session.Vectored.
func (f *modelFrame) Vector() *[]float64 { return &f.Params }

// frameSink keeps the one Write a Codec makes per message to a writer
// that is not a TCP connection: the codec's send frame itself, the whole
// message assembled with one copy of the parameters' in-memory image (a
// loop on a big-endian host). A codec used for one message never reuses
// that frame, so the payload is not copied a second time.
type frameSink struct{ frame []byte }

func (s *frameSink) Write(p []byte) (int, error) { s.frame = p; return len(p), nil }
func (s *frameSink) Read([]byte) (int, error)    { return 0, io.EOF }

func encodeModel(arch nn.Arch, params []float64) ([]byte, error) {
	var sink frameSink
	if err := session.NewCodec(&sink).Encode(&modelFrame{Arch: arch, Params: params}); err != nil {
		return nil, fmt.Errorf("checkpoint: encode model: %w", err)
	}
	return sink.frame, nil
}

// SnapshotState implements Snapshotter.
func (m Model) SnapshotState() ([]byte, error) { return encodeModel(m.Arch, m.Params()) }

// RestoreState implements Snapshotter. The announced parameter count is
// held to len(Params()) before anything is allocated for it. A payload
// that does not decode wraps ErrCorruptModel; one for another
// architecture or dimension is an *nn.ArchMismatchError.
func (m Model) RestoreState(data []byte) error {
	want := len(m.Params())
	var f modelFrame
	err := session.NewCodec(bytes.NewBuffer(data)).DecodeDim(&f, want)
	got := len(f.Params)
	var ce *session.CountError
	if errors.As(err, &ce) { // refused after the arch stamp decoded
		got, err = int(ce.Count), nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptModel, err)
	}
	if !f.Arch.Equal(m.Arch) {
		return &nn.ArchMismatchError{Got: f.Arch, Want: m.Arch}
	}
	if got != want {
		return &nn.ArchMismatchError{Got: f.Arch, Want: m.Arch, GotParams: got, WantParams: want}
	}
	if err := m.SetParams(f.Params); err != nil {
		return fmt.Errorf("checkpoint: restore model params: %w", err)
	}
	return nil
}

// upgradeV1 rewrites a FormatVersion 1 snapshot in the current form; only
// the model payload differs. It was a plain gob of nn's former
// Checkpoint{Arch, Params, Round}, which gob reads into a modelFrame by
// field name (Round, never set, is skipped).
func upgradeV1(snap *Snapshot) error {
	if data, ok := snap.Components[ModelComponent]; ok {
		var old modelFrame
		if err := DecodeGob("checkpoint: version 1 model", data, &old); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptModel, err)
		}
		data, err := encodeModel(old.Arch, old.Params)
		if err != nil {
			return err
		}
		snap.Components[ModelComponent] = data
	}
	snap.Version = FormatVersion
	return nil
}
