package telemetry

import (
	"bytes"
	"errors"
	"testing"
)

// countingWriter records how many Write calls reach the underlying
// destination, so the buffering contract is observable.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestJSONLSinkBuffers checks Emit stays in memory until Flush: no
// syscall-per-event on the round hot path.
func TestJSONLSinkBuffers(t *testing.T) {
	var w countingWriter
	s := NewJSONLSink(&w)
	for round := 0; round < 10; round++ {
		s.Emit(RoundStart(round))
		s.Emit(Aggregated(round, []int{1, 2}, 3.5, float64(round)))
	}
	if w.writes != 0 {
		t.Fatalf("underlying writer saw %d writes before Flush", w.writes)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.writes == 0 {
		t.Fatal("Flush did not reach the underlying writer")
	}
	events, err := ReadJSONL(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("decoded %d events, want 20", len(events))
	}
	if events[1].Kind != KindAggregated || events[1].VirtualSec != 3.5 {
		t.Errorf("event mangled: %+v", events[1])
	}
}

// TestJSONLSinkSmallBuffer checks a filled buffer spills without
// waiting for Flush.
func TestJSONLSinkSmallBuffer(t *testing.T) {
	var w countingWriter
	s := NewJSONLSinkSize(&w, 64)
	for i := 0; i < 20; i++ {
		s.Emit(RoundStart(i))
	}
	if w.writes == 0 {
		t.Fatal("tiny buffer never spilled")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("decoded %d events, want 20", len(events))
	}
}

// failingDest fails writes and/or close, and records whether Close was
// called.
type failingDest struct {
	writeErr error
	closeErr error
	closed   bool
}

func (d *failingDest) Write(p []byte) (int, error) {
	if d.writeErr != nil {
		return 0, d.writeErr
	}
	return len(p), nil
}

func (d *failingDest) Close() error {
	d.closed = true
	return d.closeErr
}

// TestJSONLSinkCloseWriteError checks a buffered write failure is
// sticky: surfaced by Close, and again by every later Flush/Close.
func TestJSONLSinkCloseWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	d := &failingDest{writeErr: wantErr}
	s := NewJSONLSink(d)
	s.c = d
	s.Emit(RoundStart(0))
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close error = %v, want %v", err, wantErr)
	}
	if !d.closed {
		t.Error("Close did not close the owned destination")
	}
	if err := s.Flush(); !errors.Is(err, wantErr) {
		t.Errorf("error not sticky: Flush after Close = %v", err)
	}
}

// TestJSONLSinkCloseCloserError checks a failing owned Closer surfaces
// even when every write succeeded, and that Close is idempotent on the
// destination.
func TestJSONLSinkCloseCloserError(t *testing.T) {
	wantErr := errors.New("close failed")
	d := &failingDest{closeErr: wantErr}
	s := NewJSONLSink(d)
	s.c = d
	s.Emit(RoundStart(0))
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close error = %v, want %v", err, wantErr)
	}
	d.closed = false
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Errorf("second Close = %v, want sticky %v", err, wantErr)
	}
	if d.closed {
		t.Error("second Close re-closed the destination")
	}
}
