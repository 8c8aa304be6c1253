package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"haccs/internal/telemetry"
)

// tracer collects the traced pass's spans in memory: the harness's own
// spans around the public calls it makes, and the program's existing
// round-lifecycle spans, switched on through the public Spans/Metrics
// config fields. Nothing is written until the run ends. A nil *tracer
// is the untraced pass: every method is a no-op.
type tracer struct {
	epoch time.Time
	sink  *telemetry.MemorySink
	spans *telemetry.SpanTracer
	reg   *telemetry.Registry
	own   []span
	next  int
	// measuring turns on once set-up (and its warm-up rounds) is over;
	// earlier spans are dropped so per-round numbers cover the measured
	// window only.
	measuring bool
	skip      int // program span events emitted before measuring began
}

// span is one timed operation: name, start, end (start+dur), the span
// that caused it, and the round it belongs to.
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Round  int     `json:"round"`
	Client int     `json:"client"`
	Start  float64 `json:"start_s"` // seconds since the trace epoch; -1 for spans timed on another clock
	Dur    float64 `json:"dur_s"`
	Source string  `json:"src"` // "harness" or "system"
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), sink: &telemetry.MemorySink{}, reg: telemetry.NewRegistry()}
	// The span tracer stamps starts relative to its own construction,
	// which is the harness epoch to within a microsecond.
	t.spans = telemetry.NewSpanTracer(t.sink, t.reg)
	return t
}

// sys returns the program-side tracing handles for a config struct.
func (t *tracer) sys() (*telemetry.SpanTracer, *telemetry.Registry) {
	if t == nil {
		return nil, nil
	}
	return t.spans, t.reg
}

// on reports whether this is the traced pass.
func (t *tracer) on() bool { return t != nil }

// timing reports whether harness-side timers should run: traced pass,
// measured window.
func (t *tracer) timing() bool { return t != nil && t.measuring }

// mark starts the measured window.
func (t *tracer) mark() {
	if t == nil {
		return
	}
	t.measuring = true
	t.skip = t.sink.Len()
}

// id reserves a harness span ID so children can name their parent
// before the parent has ended.
func (t *tracer) id() string {
	if t == nil {
		return ""
	}
	t.next++
	return "h" + strconv.Itoa(t.next)
}

// record stores one finished harness span.
func (t *tracer) record(name, id, parent string, round int, start time.Time, dur time.Duration) {
	if !t.timing() {
		return
	}
	t.own = append(t.own, span{Name: name, ID: id, Parent: parent, Round: round, Client: -1,
		Start: start.Sub(t.epoch).Seconds(), Dur: dur.Seconds(), Source: "harness"})
}

// timed runs fn under a harness span and returns its duration.
func (t *tracer) timed(name, parent string, round int, fn func()) time.Duration {
	s := time.Now()
	fn()
	d := time.Since(s)
	t.record(name, t.id(), parent, round, s, d)
	return d
}

// all merges harness spans with the program's span events. A program
// root span (no parent) is hung under the harness span of the same
// round named attach, so the file holds one tree per round.
func (t *tracer) all(attach string) []span {
	if t == nil {
		return nil
	}
	out := append([]span(nil), t.own...)
	byRound := map[int]string{}
	for _, s := range t.own {
		if s.Name == attach {
			byRound[s.Round] = s.ID
		}
	}
	for _, e := range t.sink.Events()[t.skip:] {
		if e.Kind != telemetry.KindSpan {
			continue
		}
		s := span{Name: e.Span, ID: e.SpanID, Parent: e.ParentID, Round: e.Round, Client: e.Client,
			Start: e.StartSec, Dur: e.WallSec, Source: "system"}
		if s.Parent == "" && s.Name == "round" {
			s.Parent = byRound[s.Round]
		}
		out = append(out, s)
	}
	return out
}

// spanTotals sums spans by name: total time, count, and self time (a
// span's duration minus its direct children's).
type spanTotals struct {
	total, self map[string]float64
	count       map[string]int
}

func totals(spans []span) spanTotals {
	st := spanTotals{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	children := map[string]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] += s.Dur
		}
	}
	for _, s := range spans {
		st.total[s.Name] += s.Dur
		st.count[s.Name]++
		st.self[s.Name] += s.Dur - children[s.ID]
	}
	return st
}

// meanMS is a span name's mean duration in milliseconds.
func (st spanTotals) meanMS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return st.total[name] / float64(st.count[name]) * 1e3
}

// perRoundMS spreads a span name's total over the measured rounds.
func (st spanTotals) perRoundMS(name string, rounds int) float64 {
	return st.total[name] / float64(rounds) * 1e3
}

// writeSpans writes one JSON object per span to
// <dir>/trace_<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// histMeanMS reads the mean of a registry histogram in milliseconds,
// summing over label values (0 when the series does not exist).
func histMeanMS(reg *telemetry.Registry, name string) float64 {
	sum, n := histSum(reg, name)
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e3
}

func histSum(reg *telemetry.Registry, name string) (sum float64, count uint64) {
	if reg == nil {
		return 0, 0
	}
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Hist != nil {
			sum += s.Hist.Sum
			count += s.Hist.Count
		}
	}
	return sum, count
}

func counterValue(reg *telemetry.Registry, name string) float64 {
	if reg == nil {
		return 0
	}
	v := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Hist == nil {
			v += s.Value
		}
	}
	return v
}
