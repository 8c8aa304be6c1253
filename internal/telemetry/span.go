package telemetry

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Spans are the timed, nestable complement to the flat event trace: one
// span per round-lifecycle phase (availability → select → dispatch →
// per-client train → collect → aggregate → update), each carrying a
// trace/span/parent ID triple so a run can be reassembled into a tree —
// including across the flnet wire, where the coordinator's per-client
// train span context travels inside the TrainRequest and the client's
// local-train span ships back on the reply.
//
// The design constraint is the same as the rest of the package: a nil
// *SpanTracer is the documented "off" state and must cost nothing. Span
// is a value type, every constructor on a nil tracer returns the zero
// Span, and every method on the zero Span is a no-op, so the fully
// instrumented hot path allocates nothing when tracing is off (pinned
// by TestSpanNilTracerZeroAlloc).

// spanIDs hands out process-unique span and trace IDs. The counter is
// offset by the process start time so two cooperating processes (a
// coordinator and its TCP clients) draw from ranges that do not collide
// in practice; IDs are opaque and never enter any deterministic
// computation.
var spanIDs atomic.Uint64

func init() {
	spanIDs.Store(uint64(time.Now().UnixNano()) << 16)
}

// NewSpanID returns a fresh process-unique span ID (never zero). The
// flnet client uses it to mint IDs for spans it ships back to the
// coordinator without owning a SpanTracer.
func NewSpanID() uint64 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}

// FormatSpanID renders a span/trace ID the way span events carry it
// (lowercase hex, no padding).
func FormatSpanID(id uint64) string { return strconv.FormatUint(id, 16) }

// ParseSpanID inverts FormatSpanID; it returns 0 for empty or malformed
// input (0 is never a live ID).
func ParseSpanID(s string) uint64 {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// SpanContext is the wire-propagable identity of a span: enough for a
// remote party to parent its own spans under it. The zero value means
// "no trace in progress".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether the context carries no trace.
func (sc SpanContext) Zero() bool { return sc.TraceID == 0 && sc.SpanID == 0 }

// Valid reports whether the context is well-formed: either fully zero
// (tracing off) or fully populated. A half-set context is a protocol
// error — flnet rejects it as a *session.ProtocolError.
func (sc SpanContext) Valid() bool {
	return sc.Zero() || (sc.TraceID != 0 && sc.SpanID != 0)
}

// SpanBuckets cover span durations: round phases range from
// microsecond bookkeeping (availability masking) through multi-second
// dispatch waits at paper scale.
var SpanBuckets = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// SpanTracer creates and records spans. Completed spans are emitted as
// KindSpan events into the sink (so the JSONL flight recorder and the
// ring behind /debug/spans both see them) and their durations are
// observed into the haccs_span_seconds{span=<name>} histogram family
// when a registry is attached. A nil *SpanTracer disables spans at zero
// cost; all methods are safe on the nil receiver.
type SpanTracer struct {
	sink  Tracer
	reg   *Registry
	hist  HistogramVec
	start time.Time
}

// NewSpanTracer builds a tracer recording into sink (span events; may
// be nil) and reg (duration histograms; may be nil). When both are nil
// there is nothing to record into and the constructor returns nil — the
// documented "off" tracer.
func NewSpanTracer(sink Tracer, reg *Registry) *SpanTracer {
	if sink == nil && reg == nil {
		return nil
	}
	t := &SpanTracer{sink: sink, reg: reg, start: time.Now()}
	if reg != nil {
		t.hist = reg.HistogramVec("haccs_span_seconds",
			"Duration of one round-lifecycle span, labelled by span name.", "span", SpanBuckets)
	}
	return t
}

// Span is one timed operation in a trace tree. It is a small value:
// copying it is free, the zero value is the documented no-op span, and
// Ending it twice is harmless (the second End re-emits; don't).
type Span struct {
	tr     *SpanTracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	round  int
	client int
	start  time.Time
}

// Root opens a new trace with one root span (the per-round entry
// point). Returns the zero Span on a nil tracer.
func (t *SpanTracer) Root(name string, round int) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:     t,
		name:   name,
		trace:  NewSpanID(),
		id:     NewSpanID(),
		round:  round,
		client: -1,
		start:  time.Now(),
	}
}

// FromContext opens a span parented under a remote context — the
// receiving side of wire propagation. A nil tracer or an empty/invalid
// context yields the zero Span.
func (t *SpanTracer) FromContext(sc SpanContext, name string, round, client int) Span {
	if t == nil || sc.Zero() || !sc.Valid() {
		return Span{}
	}
	return Span{
		tr:     t,
		name:   name,
		trace:  sc.TraceID,
		id:     NewSpanID(),
		parent: sc.SpanID,
		round:  round,
		client: client,
		start:  time.Now(),
	}
}

// Child opens a sub-span inheriting the trace, round and client of s.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{
		tr:     s.tr,
		name:   name,
		trace:  s.trace,
		id:     NewSpanID(),
		parent: s.id,
		round:  s.round,
		client: s.client,
		start:  time.Now(),
	}
}

// ChildClient is Child with the span attributed to one client — the
// per-client train spans under a round's dispatch span.
func (s Span) ChildClient(name string, client int) Span {
	c := s.Child(name)
	if c.tr != nil {
		c.client = client
	}
	return c
}

// Context returns the span's wire-propagable identity (zero for the
// zero Span).
func (s Span) Context() SpanContext {
	if s.tr == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// End completes the span: one KindSpan event into the sink and one
// duration observation into the haccs_span_seconds family. No-op on the
// zero Span.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	dur := time.Since(s.start).Seconds()
	if s.tr.reg != nil {
		s.tr.hist.With(s.name).Observe(dur)
	}
	if s.tr.sink != nil {
		s.tr.sink.Emit(SpanEnded(s.name, s.trace, s.id, s.parent, s.round, s.client,
			s.start.Sub(s.tr.start).Seconds(), dur))
	}
}

// EmitForeign records a span completed elsewhere (e.g. a client-side
// train span shipped back over the flnet wire) into the tracer's sink
// and histogram family. startSec < 0 marks the start offset as unknown
// — foreign clocks are not comparable to the tracer's.
func (t *SpanTracer) EmitForeign(name string, trace, span, parent uint64, round, client int, durSec float64) {
	if t == nil {
		return
	}
	if t.reg != nil {
		t.hist.With(name).Observe(durSec)
	}
	if t.sink != nil {
		t.sink.Emit(SpanEnded(name, trace, span, parent, round, client, -1, durSec))
	}
}
