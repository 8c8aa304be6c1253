// Package telemetry is the live observability layer for the HACCS
// stack: a dependency-free, concurrency-safe metrics registry
// (counters, gauges, fixed-bucket histograms) plus a structured
// round-trace event stream with pluggable sinks (JSONL,
// in-memory, HTTP). The simulation engine, the HACCS scheduler, the
// clustering substrate and the flnet coordinator all record into it;
// everything is optional and nil-safe, so uninstrumented runs pay
// nothing.
//
// Metric names form a stable, documented contract (see the
// Observability section of README.md): once a dashboard scrapes
// haccs_rounds_total it must keep working across PRs.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricType distinguishes the exposition families.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing float64. All methods are safe
// for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas panic (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decreased")
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 that can go up and down. All methods
// are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, Prometheus-style
// (cumulative on exposition, non-cumulative internally). All methods
// are safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // sorted upper bounds, +Inf bucket is implicit
	counts []uint64  // len(upper)+1, last is the overflow (+Inf) bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Upper  []float64 // bucket upper bounds (exclusive of +Inf)
	Counts []uint64  // per-bucket (non-cumulative) counts, len(Upper)+1
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state under the lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Upper:  append([]float64(nil), h.upper...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation within the bucket holding the target
// rank, the standard Prometheus histogram_quantile estimate: the first
// bucket interpolates from 0, and a rank landing in the +Inf overflow
// bucket returns the last finite upper bound (the estimate is clamped
// to the observable range). An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, upper := range s.Upper {
		prev := cum
		cum += s.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Upper[i-1]
			}
			if s.Counts[i] == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(s.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
	}
	return s.Upper[len(s.Upper)-1]
}

// DefBuckets are the default histogram bounds (seconds): wide enough
// for both wall-clock training times and simulated round latencies.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// child is one labelled instance inside a family.
type child struct {
	labelValue string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// family groups all children sharing a metric name.
type family struct {
	name     string
	help     string
	typ      metricType
	labelKey string // "" for unlabelled metrics
	buckets  []float64
	// pairs, when non-nil, marks an info-style family (a single gauge
	// child carrying a fixed set of label pairs, the Prometheus
	// *_info idiom). Mutually exclusive with labelKey.
	pairs [][2]string

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) get(labelValue string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[labelValue]
	if !ok {
		c = &child{labelValue: labelValue}
		switch f.typ {
		case typeCounter:
			c.counter = &Counter{}
		case typeGauge:
			c.gauge = &Gauge{}
		case typeHistogram:
			h := &Histogram{upper: append([]float64(nil), f.buckets...)}
			h.counts = make([]uint64, len(h.upper)+1)
			c.hist = h
		}
		f.children[labelValue] = c
	}
	return c
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry. A nil *Registry is accepted by every instrumentation
// site in the repo and disables recording.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the family for name, creating it on first use.
// Re-registering an existing name with a different type, label key or
// bucket layout panics: metric names are a contract.
func (r *Registry) lookup(name, help string, typ metricType, labelKey string, buckets []float64) *family {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:     name,
			help:     help,
			typ:      typ,
			labelKey: labelKey,
			buckets:  append([]float64(nil), buckets...),
			children: map[string]*child{},
		}
		sort.Float64s(f.buckets)
		r.families[name] = f
		return f
	}
	if f.typ != typ || f.labelKey != labelKey || len(f.buckets) != len(buckets) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
	}
	return f
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, typeCounter, "", nil).get("").counter
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, typeGauge, "", nil).get("").gauge
}

// Histogram returns the fixed-bucket histogram registered under name.
// buckets are upper bounds; a +Inf overflow bucket is implicit. Pass
// DefBuckets when nothing domain-specific fits.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.lookup(name, help, typeHistogram, "", buckets).get("").hist
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the child counter for the label value.
func (v CounterVec) With(labelValue string) *Counter { return v.f.get(labelValue).counter }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label value.
func (v GaugeVec) With(labelValue string) *Gauge { return v.f.get(labelValue).gauge }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label value.
func (v HistogramVec) With(labelValue string) *Histogram { return v.f.get(labelValue).hist }

// CounterVec returns the labelled counter family registered under name.
func (r *Registry) CounterVec(name, help, labelKey string) CounterVec {
	return CounterVec{r.lookup(name, help, typeCounter, labelKey, nil)}
}

// GaugeVec returns the labelled gauge family registered under name.
func (r *Registry) GaugeVec(name, help, labelKey string) GaugeVec {
	return GaugeVec{r.lookup(name, help, typeGauge, labelKey, nil)}
}

// InfoGauge registers a gauge carrying a fixed set of label pairs —
// the Prometheus *_info idiom (haccs_build_info{revision="…",
// go_version="…"} 1). Pairs render in the given order; the pair set is
// part of the family shape, so re-registering the name with different
// pairs panics like any other shape change.
func (r *Registry) InfoGauge(name, help string, pairs [][2]string) *Gauge {
	f := r.lookup(name, help, typeGauge, "", nil)
	f.mu.Lock()
	if f.pairs == nil {
		f.pairs = append([][2]string(nil), pairs...)
	} else if len(f.pairs) != len(pairs) {
		f.mu.Unlock()
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
	} else {
		for i, p := range pairs {
			if f.pairs[i] != p {
				f.mu.Unlock()
				panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
			}
		}
	}
	f.mu.Unlock()
	return f.get("").gauge
}

// HistogramVec returns the labelled histogram family registered under
// name.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64) HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return HistogramVec{r.lookup(name, help, typeHistogram, labelKey, buckets)}
}

// Sample is one exported time-series value in a Snapshot.
type Sample struct {
	Name       string
	LabelKey   string // "" when the metric is unlabelled
	LabelValue string
	// Pairs are the fixed label pairs of an info-style family (see
	// Registry.InfoGauge); nil everywhere else.
	Pairs [][2]string
	Type  string // "counter" | "gauge" | "histogram"
	Value float64
	Hist  *HistogramSnapshot // histograms only
}

// Snapshot returns every registered series in deterministic order
// (family name, then label value).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var out []Sample
	for _, f := range fams {
		f.mu.Lock()
		values := make([]string, 0, len(f.children))
		for v := range f.children {
			values = append(values, v)
		}
		sort.Strings(values)
		kids := make([]*child, 0, len(values))
		for _, v := range values {
			kids = append(kids, f.children[v])
		}
		pairs := f.pairs
		f.mu.Unlock()
		for _, c := range kids {
			s := Sample{Name: f.name, LabelKey: f.labelKey, LabelValue: c.labelValue, Pairs: pairs, Type: f.typ.String()}
			switch f.typ {
			case typeCounter:
				s.Value = c.counter.Value()
			case typeGauge:
				s.Value = c.gauge.Value()
			case typeHistogram:
				snap := c.hist.Snapshot()
				s.Hist = &snap
				s.Value = snap.Sum
			}
			out = append(out, s)
		}
	}
	return out
}
