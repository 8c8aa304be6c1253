package telemetry

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"
)

// RuntimeCollector samples Go runtime health into haccs_runtime_*
// gauges so a /metrics scrape carries the coordinator's own resource
// envelope next to the federated-round series: live heap bytes, GC
// pause p99, goroutine count and scheduler latency p99 (all via
// runtime/metrics), plus the conventional haccs_build_info gauge
// stamping the binary's VCS revision and Go version.
//
// A nil *RuntimeCollector is fully inert: every method returns
// immediately and allocates nothing (pinned by
// TestRuntimeCollectorNilIsInert), mirroring the repo-wide
// nil-registry discipline — uninstrumented runs pay nothing.
type RuntimeCollector struct {
	interval time.Duration
	samples  []rtmetrics.Sample

	heapBytes  *Gauge
	goroutines *Gauge
	gcPauseP99 *Gauge
	schedP99   *Gauge
	gcCycles   *Gauge

	stop chan struct{}
	done chan struct{}
}

// The runtime/metrics keys the collector reads. All are supported on
// every Go release this module builds with; a key the runtime refuses
// (KindBad) is skipped defensively rather than panicking.
const (
	keyHeapBytes  = "/memory/classes/heap/objects:bytes"
	keyGoroutines = "/sched/goroutines:goroutines"
	keyGCPauses   = "/gc/pauses:seconds"
	keySchedLat   = "/sched/latencies:seconds"
	keyGCCycles   = "/gc/cycles/total:gc-cycles"
)

// NewRuntimeCollector registers the haccs_runtime_* gauges (and the
// haccs_build_info stamp) on reg and returns a collector sampling
// them every interval once Start is called. interval <= 0 defaults to
// one second. A nil registry returns a nil (inert) collector.
func NewRuntimeCollector(reg *Registry, interval time.Duration) *RuntimeCollector {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = time.Second
	}
	SetBuildInfo(reg)
	c := &RuntimeCollector{
		interval: interval,
		samples: []rtmetrics.Sample{
			{Name: keyHeapBytes},
			{Name: keyGoroutines},
			{Name: keyGCPauses},
			{Name: keySchedLat},
			{Name: keyGCCycles},
		},
		heapBytes:  reg.Gauge("haccs_runtime_heap_bytes", "Live heap bytes (runtime/metrics /memory/classes/heap/objects:bytes)."),
		goroutines: reg.Gauge("haccs_runtime_goroutines", "Goroutines currently alive."),
		gcPauseP99: reg.Gauge("haccs_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause over the process lifetime."),
		schedP99:   reg.Gauge("haccs_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency over the process lifetime."),
		gcCycles:   reg.Gauge("haccs_runtime_gc_cycles", "Completed GC cycles since process start."),
	}
	return c
}

// SetBuildInfo registers the conventional build-info gauge —
// haccs_build_info{revision,go_version} 1 — resolving the revision
// from the binary's embedded VCS stamp ("unknown" when the build
// carried none, e.g. test binaries).
func SetBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	reg.InfoGauge("haccs_build_info", "Build metadata carried as labels; the value is always 1.", [][2]string{
		{"revision", buildRevision()},
		{"go_version", runtime.Version()},
	}).Set(1)
}

// buildRevision extracts the short VCS revision from the embedded
// build info.
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "unknown"
}

// SampleOnce reads the runtime metrics and updates the gauges. Safe
// to call whether or not the background loop runs (the smoke checks
// call it right before a scrape for a deterministic reading); no-op
// on a nil collector.
func (c *RuntimeCollector) SampleOnce() {
	if c == nil {
		return
	}
	rtmetrics.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case keyHeapBytes:
			if s.Value.Kind() == rtmetrics.KindUint64 {
				c.heapBytes.Set(float64(s.Value.Uint64()))
			}
		case keyGoroutines:
			if s.Value.Kind() == rtmetrics.KindUint64 {
				c.goroutines.Set(float64(s.Value.Uint64()))
			}
		case keyGCPauses:
			if s.Value.Kind() == rtmetrics.KindFloat64Histogram {
				c.gcPauseP99.Set(histQuantile(s.Value.Float64Histogram(), 0.99))
			}
		case keySchedLat:
			if s.Value.Kind() == rtmetrics.KindFloat64Histogram {
				c.schedP99.Set(histQuantile(s.Value.Float64Histogram(), 0.99))
			}
		case keyGCCycles:
			if s.Value.Kind() == rtmetrics.KindUint64 {
				c.gcCycles.Set(float64(s.Value.Uint64()))
			}
		}
	}
}

// Start launches the background sampling goroutine. Idempotent: a
// second Start while running is a no-op. No-op on a nil collector.
func (c *RuntimeCollector) Start() {
	if c == nil || c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	c.SampleOnce()
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.SampleOnce()
			}
		}
	}(c.stop, c.done)
}

// Stop halts the sampling goroutine and waits for it to exit (the
// shutdown-audit goroutine counting relies on this being synchronous).
// Safe on a nil or never-started collector, and idempotent.
func (c *RuntimeCollector) Stop() {
	if c == nil || c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}

// histQuantile estimates the q-quantile of a runtime/metrics
// histogram: the upper edge of the bucket holding the target rank,
// clamped to the finite bucket range (the runtime's first and last
// boundaries may be ±Inf). An empty histogram returns 0.
func histQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	lastFinite := 0.0
	for i, cnt := range h.Counts {
		// Bucket i spans Buckets[i]..Buckets[i+1].
		upper := h.Buckets[i+1]
		if upper < maxFloat(h.Buckets) {
			lastFinite = upper
		}
		cum += cnt
		if float64(cum) >= rank {
			if isInf(upper) {
				return lastFinite
			}
			return upper
		}
	}
	return lastFinite
}

func isInf(v float64) bool { return v > 1e308 || v < -1e308 }

func maxFloat(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m && !isInf(v) {
			m = v
		}
	}
	return m
}
