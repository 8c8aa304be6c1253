package rounds

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"haccs/internal/telemetry"
)

// fakeProxy is a deterministic in-memory client: params = base+round in
// every coordinate, so the expected FedAvg is computable by hand.
type fakeProxy struct {
	id      int
	latency float64
	samples int
	dim     int
	fail    map[int]bool // rounds in which Train errors
	summary []float64
	calls   int
}

func (p *fakeProxy) Train(round, worker, slot int, params []float64, _ telemetry.SpanContext) (Result, error) {
	p.calls++
	if p.fail[round] {
		return Result{}, errors.New("fake transport failure")
	}
	out := make([]float64, p.dim)
	for i := range out {
		out[i] = float64(p.id) + float64(round)
	}
	return Result{
		ClientID:   p.id,
		Params:     out,
		NumSamples: p.samples,
		Loss:       float64(p.id) * 10,
		Summary:    p.summary,
	}, nil
}

func (p *fakeProxy) Latency() float64 { return p.latency }

type fakeTransport struct {
	proxies []Proxy
	par     int
}

func (t fakeTransport) Proxies() []Proxy { return t.proxies }
func (t fakeTransport) Parallelism() int { return t.par }

// scriptStrategy returns a fixed selection per round and records every
// Update call (with copies, since the driver reuses its buffers).
type scriptStrategy struct {
	selections [][]int
	updates    []updateCall
}

type updateCall struct {
	round    int
	selected []int
	losses   []float64
}

func (s *scriptStrategy) Select(round int, available []bool, k int) []int {
	if round >= len(s.selections) {
		return nil
	}
	return s.selections[round]
}

func (s *scriptStrategy) Update(round int, selected []int, losses []float64) {
	s.updates = append(s.updates, updateCall{
		round:    round,
		selected: append([]int(nil), selected...),
		losses:   append([]float64(nil), losses...),
	})
}

const testDim = 3

func newFakeCluster(latencies []float64, samples []int) ([]*fakeProxy, fakeTransport) {
	fakes := make([]*fakeProxy, len(latencies))
	proxies := make([]Proxy, len(latencies))
	for i := range latencies {
		fakes[i] = &fakeProxy{id: i, latency: latencies[i], samples: samples[i], dim: testDim}
		proxies[i] = fakes[i]
	}
	return fakes, fakeTransport{proxies: proxies, par: 2}
}

// captureTracer records events by kind for assertion. Emit locks: the
// drivers emit ClientTrained from their worker goroutines.
type captureTracer struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *captureTracer) Emit(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *captureTracer) kinds() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.events))
	for i, e := range c.events {
		out[i] = e.Kind
	}
	return out
}

func (c *captureTracer) find(kind string) *telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.events {
		if c.events[i].Kind == kind {
			return &c.events[i]
		}
	}
	return nil
}

func TestDeadlineCutsStragglerAndRenormalizes(t *testing.T) {
	// Client 2 (latency 10) misses the deadline of 5; clients 0 and 1
	// report with 100 and 300 samples, so weights renormalize to
	// 1/4 and 3/4 over the reporters.
	_, tr := newFakeCluster([]float64{1, 2, 10}, []int{100, 300, 600})
	strat := &scriptStrategy{selections: [][]int{{0, 1, 2}}}
	tc := &captureTracer{}
	d := NewDriver(Config{ClientsPerRound: 3, Deadline: 5, Tracer: tc}, tr, strat, make([]float64, testDim))

	out := d.RunRound(0)
	if !reflect.DeepEqual(out.Reporters, []int{0, 1}) {
		t.Fatalf("reporters = %v, want [0 1]", out.Reporters)
	}
	if !reflect.DeepEqual(out.Cut, []int{2}) {
		t.Fatalf("cut = %v, want [2]", out.Cut)
	}
	if len(out.Failed) != 0 || !out.Aggregated {
		t.Fatalf("failed = %v aggregated = %v", out.Failed, out.Aggregated)
	}
	// FedAvg over reporters only: (100*0 + 300*1)/400 = 0.75 per coord.
	for i, v := range d.Global() {
		if v != 0.75 {
			t.Fatalf("global[%d] = %v, want 0.75 (renormalized over reporters)", i, v)
		}
	}
	// The round waits out the deadline because someone was cut.
	if out.RoundVirtual != 5 || d.Clock() != 5 {
		t.Fatalf("roundVirtual = %v clock = %v, want 5", out.RoundVirtual, d.Clock())
	}
	// Update sees reporters only, in selection order.
	if len(strat.updates) != 1 {
		t.Fatalf("got %d Update calls, want 1", len(strat.updates))
	}
	u := strat.updates[0]
	if !reflect.DeepEqual(u.selected, []int{0, 1}) || !reflect.DeepEqual(u.losses, []float64{0, 10}) {
		t.Fatalf("Update(%v, %v), want ([0 1], [0 10])", u.selected, u.losses)
	}
	ev := tc.find(telemetry.KindStragglerCut)
	if ev == nil {
		t.Fatal("no straggler_cut event emitted")
	}
	if !reflect.DeepEqual(ev.Clients, []int{2}) || ev.VirtualSec != 5 {
		t.Fatalf("straggler_cut clients=%v deadline=%v", ev.Clients, ev.VirtualSec)
	}
}

func TestNoDeadlineRoundLastsForSlowest(t *testing.T) {
	_, tr := newFakeCluster([]float64{1, 7, 3}, []int{10, 10, 10})
	strat := &scriptStrategy{selections: [][]int{{2, 0, 1}}}
	d := NewDriver(Config{ClientsPerRound: 3}, tr, strat, make([]float64, testDim))
	out := d.RunRound(0)
	if out.RoundVirtual != 7 || d.Clock() != 7 {
		t.Fatalf("roundVirtual = %v clock = %v, want 7", out.RoundVirtual, d.Clock())
	}
	if !reflect.DeepEqual(out.Reporters, []int{2, 0, 1}) {
		t.Fatalf("reporters = %v, want selection order [2 0 1]", out.Reporters)
	}
	if len(out.Cut) != 0 || len(out.Failed) != 0 {
		t.Fatalf("cut = %v failed = %v, want none", out.Cut, out.Failed)
	}
}

func TestTransportFailureMarksClientDead(t *testing.T) {
	fakes, tr := newFakeCluster([]float64{1, 2, 3}, []int{10, 10, 10})
	fakes[1].fail = map[int]bool{0: true}
	strat := &scriptStrategy{selections: [][]int{{0, 1, 2}, {0, 2}}}
	tc := &captureTracer{}
	d := NewDriver(Config{ClientsPerRound: 3, Tracer: tc}, tr, strat, make([]float64, testDim))

	out := d.RunRound(0)
	if !reflect.DeepEqual(out.Failed, []int{1}) {
		t.Fatalf("failed = %v, want [1]", out.Failed)
	}
	if !reflect.DeepEqual(out.Reporters, []int{0, 2}) || !out.Aggregated {
		t.Fatalf("reporters = %v aggregated = %v, want [0 2] true", out.Reporters, out.Aggregated)
	}
	// Without a deadline the server waits for the dead client's expected
	// reply time: max latency over all selected = 3.
	if out.RoundVirtual != 3 {
		t.Fatalf("roundVirtual = %v, want 3", out.RoundVirtual)
	}
	if !d.Dead(1) || d.Dead(0) || d.Dead(2) {
		t.Fatal("client 1 should be dead, 0 and 2 alive")
	}
	if ev := tc.find(telemetry.KindClientFailed); ev == nil || !reflect.DeepEqual(ev.Clients, []int{1}) {
		t.Fatalf("client_failed event = %+v, want clients [1]", ev)
	}

	// Next round: the dead client is excluded from availability, and the
	// transport is never asked to train it again.
	d.RunRound(1)
	if fakes[1].calls != 1 {
		t.Fatalf("dead client trained %d times, want 1 (the failed attempt)", fakes[1].calls)
	}
	if ev := tc.find(telemetry.KindUnavailable); ev == nil || ev.Round != 1 || !reflect.DeepEqual(ev.Clients, []int{1}) {
		t.Fatalf("unavailable event = %+v, want round 1 clients [1]", ev)
	}
}

func TestAllCutSkipsAggregation(t *testing.T) {
	_, tr := newFakeCluster([]float64{8, 9}, []int{10, 10})
	strat := &scriptStrategy{selections: [][]int{{0, 1}}}
	init := []float64{1, 2, 3}
	d := NewDriver(Config{ClientsPerRound: 2, Deadline: 5}, tr, strat, append([]float64(nil), init...))
	out := d.RunRound(0)
	if out.Aggregated || len(out.Reporters) != 0 {
		t.Fatalf("aggregated = %v reporters = %v, want no aggregation", out.Aggregated, out.Reporters)
	}
	if !reflect.DeepEqual(d.Global(), init) {
		t.Fatalf("global mutated to %v with zero reporters", d.Global())
	}
	if len(strat.updates) != 1 || len(strat.updates[0].selected) != 0 {
		t.Fatalf("Update calls = %+v, want one empty call", strat.updates)
	}
	if d.Clock() != 5 {
		t.Fatalf("clock = %v, want the deadline 5", d.Clock())
	}
}

func TestEmptySelectionAdvancesRetryTick(t *testing.T) {
	_, tr := newFakeCluster([]float64{1}, []int{10})
	strat := &scriptStrategy{selections: [][]int{nil}}
	d := NewDriver(Config{ClientsPerRound: 1}, tr, strat, make([]float64, testDim))
	out := d.RunRound(0)
	if d.Clock() != 1 || out.RoundVirtual != 1 {
		t.Fatalf("clock = %v roundVirtual = %v, want 1 (retry tick)", d.Clock(), out.RoundVirtual)
	}
	if out.Selected != nil || out.Aggregated {
		t.Fatalf("outcome = %+v, want empty round", out)
	}
	if len(strat.updates) != 1 || strat.updates[0].selected != nil && len(strat.updates[0].selected) != 0 {
		t.Fatalf("Update calls = %+v, want one nil call", strat.updates)
	}
}

func TestSummaryForwarding(t *testing.T) {
	fakes, tr := newFakeCluster([]float64{1, 2}, []int{10, 10})
	fakes[1].summary = []float64{3, 4}
	strat := &scriptStrategy{selections: [][]int{{0, 1}}}
	var got []struct {
		id     int
		counts []float64
	}
	d := NewDriver(Config{
		ClientsPerRound: 2,
		OnSummary: func(id int, counts []float64) {
			got = append(got, struct {
				id     int
				counts []float64
			}{id, counts})
		},
	}, tr, strat, make([]float64, testDim))
	d.RunRound(0)
	if len(got) != 1 || got[0].id != 1 || !reflect.DeepEqual(got[0].counts, []float64{3, 4}) {
		t.Fatalf("OnSummary calls = %+v, want one call for client 1", got)
	}
}

func TestSelectionValidationPanics(t *testing.T) {
	cases := map[string][]int{
		"invalid id":  {5},
		"negative id": {-1},
		"duplicate":   {0, 0},
		"over budget": {0, 1, 2},
	}
	for name, sel := range cases {
		t.Run(name, func(t *testing.T) {
			_, tr := newFakeCluster([]float64{1, 2, 3}, []int{10, 10, 10})
			strat := &scriptStrategy{selections: [][]int{sel}}
			d := NewDriver(Config{ClientsPerRound: 2}, tr, strat, make([]float64, testDim))
			defer func() {
				if recover() == nil {
					t.Fatalf("%s selection did not panic", name)
				}
			}()
			d.RunRound(0)
		})
	}
}

func TestSelectingUnavailableClientPanics(t *testing.T) {
	fakes, tr := newFakeCluster([]float64{1, 2}, []int{10, 10})
	fakes[0].fail = map[int]bool{0: true}
	// Round 0 kills client 0; round 1 selects it anyway.
	strat := &scriptStrategy{selections: [][]int{{0}, {0}}}
	d := NewDriver(Config{ClientsPerRound: 1}, tr, strat, make([]float64, testDim))
	d.RunRound(0)
	defer func() {
		if recover() == nil {
			t.Fatal("selecting a dead client did not panic")
		}
	}()
	d.RunRound(1)
}

func TestDriverMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	fakes, tr := newFakeCluster([]float64{1, 2, 10}, []int{10, 10, 10})
	fakes[1].fail = map[int]bool{0: true}
	strat := &scriptStrategy{selections: [][]int{{0, 1, 2}}}
	d := NewDriver(Config{ClientsPerRound: 3, Deadline: 5, Metrics: reg}, tr, strat, make([]float64, testDim))
	d.RunRound(0)
	check := func(name string, want float64) {
		t.Helper()
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("haccs_rounds_total", 1)
	check("haccs_clients_selected_total", 3)
	check("haccs_clients_straggler_cut_total", 1)
	check("haccs_clients_failed_total", 1)
	if got := reg.Gauge("haccs_virtual_clock_seconds", "").Value(); got != 5 {
		t.Errorf("clock gauge = %v, want 5", got)
	}
}

func TestFedAvgRenormalizesOverReporters(t *testing.T) {
	// Direct FedAvg unit check: weights over the passed results only.
	results := []Result{
		{Params: []float64{1, 1}, NumSamples: 1},
		{Params: []float64{4, 4}, NumSamples: 3},
	}
	avg := FedAvg(results)
	want := (1.0*1 + 3.0*4) / 4
	for i, v := range avg {
		if math.Abs(v-want) > 1e-15 {
			t.Fatalf("avg[%d] = %v, want %v", i, v, want)
		}
	}
}

// TestDriverSpanTree checks the round lifecycle span shape: one root
// "round" span per round, the six phase children under it, and one
// train span per selected client under dispatch.
func TestDriverSpanTree(t *testing.T) {
	sink := &telemetry.MemorySink{}
	spans := telemetry.NewSpanTracer(sink, nil)
	_, tr := newFakeCluster([]float64{1, 2, 3}, []int{10, 10, 10})
	strat := &scriptStrategy{selections: [][]int{{0, 2}}}
	d := NewDriver(Config{ClientsPerRound: 2, Spans: spans}, tr, strat, make([]float64, testDim))
	d.RunRound(0)

	byName := map[string][]telemetry.Event{}
	for _, e := range sink.Filter(telemetry.KindSpan) {
		byName[e.Span] = append(byName[e.Span], e)
	}
	if len(byName["round"]) != 1 {
		t.Fatalf("round spans = %d, want 1", len(byName["round"]))
	}
	root := byName["round"][0]
	if root.ParentID != "" {
		t.Fatalf("round span has parent %q", root.ParentID)
	}
	for _, phase := range []string{"availability", "select", "dispatch", "collect", "aggregate", "update"} {
		evs := byName[phase]
		if len(evs) != 1 {
			t.Fatalf("%q spans = %d, want 1", phase, len(evs))
		}
		e := evs[0]
		if e.ParentID != root.SpanID || e.TraceID != root.TraceID {
			t.Errorf("%q parent/trace = %s/%s, want %s/%s", phase, e.ParentID, e.TraceID, root.SpanID, root.TraceID)
		}
		if e.Round != 0 || e.Client != -1 {
			t.Errorf("%q round/client = %d/%d", phase, e.Round, e.Client)
		}
	}
	dispatch := byName["dispatch"][0]
	trains := byName["train"]
	if len(trains) != 2 {
		t.Fatalf("train spans = %d, want 2", len(trains))
	}
	clients := map[int]bool{}
	for _, e := range trains {
		if e.ParentID != dispatch.SpanID || e.TraceID != root.TraceID {
			t.Errorf("train span parent/trace = %s/%s, want under dispatch %s", e.ParentID, e.TraceID, dispatch.SpanID)
		}
		clients[e.Client] = true
	}
	if !clients[0] || !clients[2] {
		t.Errorf("train spans cover clients %v, want 0 and 2", clients)
	}
}

// TestDriverSpanTreeEmptySelection checks an empty round still closes
// its spans without a dispatch subtree.
func TestDriverSpanTreeEmptySelection(t *testing.T) {
	sink := &telemetry.MemorySink{}
	spans := telemetry.NewSpanTracer(sink, nil)
	_, tr := newFakeCluster([]float64{1}, []int{10})
	strat := &scriptStrategy{selections: [][]int{nil}}
	d := NewDriver(Config{ClientsPerRound: 1, Spans: spans}, tr, strat, make([]float64, testDim))
	d.RunRound(0)

	names := map[string]int{}
	for _, e := range sink.Filter(telemetry.KindSpan) {
		names[e.Span]++
	}
	if names["round"] != 1 || names["availability"] != 1 || names["select"] != 1 {
		t.Fatalf("span counts = %v", names)
	}
	if names["train"] != 0 {
		t.Fatalf("empty selection produced %d train spans", names["train"])
	}
}
