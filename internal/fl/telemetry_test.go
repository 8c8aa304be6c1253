package fl

import (
	"bytes"
	"reflect"
	"testing"

	"haccs/internal/simnet"
	"haccs/internal/telemetry"
)

// TestRunEmitsEventSequence runs a short training and checks the trace
// against the engine's own Result: every round produces the expected
// event skeleton and the selection events reconstruct exactly the
// per-round selected-client lists (the acceptance criterion for the
// JSONL trace).
func TestRunEmitsEventSequence(t *testing.T) {
	clients := buildClients(t, 6, 40, 3)
	cfg := smallConfig(3)
	cfg.MaxRounds = 6
	cfg.RecordSelections = true
	var sink telemetry.MemorySink
	cfg.Tracer = &sink
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg

	strat := &fixedStrategy{order: [][]int{{0, 2, 4}, {1, 3, 5}}}
	res := NewEngine(cfg, clients, strat).Run()

	starts := sink.Filter(telemetry.KindRoundStart)
	if len(starts) != res.Rounds {
		t.Fatalf("round_start events = %d, want %d", len(starts), res.Rounds)
	}
	selections := sink.Filter(telemetry.KindSelection)
	if len(selections) != res.Rounds {
		t.Fatalf("selection events = %d, want %d", len(selections), res.Rounds)
	}
	for r, e := range selections {
		if e.Round != r {
			t.Errorf("selection %d has round %d", r, e.Round)
		}
		if !reflect.DeepEqual(e.Clients, res.Selected[r]) {
			t.Errorf("round %d: trace selection %v != result %v", r, e.Clients, res.Selected[r])
		}
	}
	trained := sink.Filter(telemetry.KindClientTrained)
	wantTrained := 0
	for _, sel := range res.Selected {
		wantTrained += len(sel)
	}
	if len(trained) != wantTrained {
		t.Fatalf("client_trained events = %d, want %d", len(trained), wantTrained)
	}
	for _, e := range trained {
		if e.Client < 0 || e.Client >= len(clients) {
			t.Errorf("trained event has bad client %d", e.Client)
		}
		if e.VirtualSec <= 0 {
			t.Errorf("trained event missing virtual latency: %+v", e)
		}
	}
	aggs := sink.Filter(telemetry.KindAggregated)
	if len(aggs) != res.Rounds {
		t.Fatalf("aggregated events = %d, want %d", len(aggs), res.Rounds)
	}
	if got := aggs[len(aggs)-1].Clock; got != res.Clock {
		t.Errorf("final aggregated clock = %v, want %v", got, res.Clock)
	}
	evals := sink.Filter(telemetry.KindEvaluated)
	if len(evals) != len(res.History) {
		t.Fatalf("evaluated events = %d, want %d", len(evals), len(res.History))
	}
	for i, e := range evals {
		if e.Acc != res.History[i].Acc || e.Loss != res.History[i].Loss {
			t.Errorf("eval event %d = (%v, %v), want (%v, %v)", i, e.Acc, e.Loss, res.History[i].Acc, res.History[i].Loss)
		}
	}

	// The per-event ordering inside one round is fixed: round_start,
	// selection, then training, then the aggregate.
	events := sink.Events()
	kindAt := func(i int) string { return events[i].Kind }
	if kindAt(0) != telemetry.KindRoundStart || kindAt(1) != telemetry.KindSelection {
		t.Errorf("round prologue = %s, %s", kindAt(0), kindAt(1))
	}

	// Engine-level metrics must agree with the result.
	if got := reg.Counter("haccs_rounds_total", "").Value(); got != float64(res.Rounds) {
		t.Errorf("rounds counter = %v, want %d", got, res.Rounds)
	}
	if got := reg.Counter("haccs_clients_selected_total", "").Value(); got != float64(wantTrained) {
		t.Errorf("selected counter = %v, want %d", got, wantTrained)
	}
	if got := reg.Gauge("haccs_virtual_clock_seconds", "").Value(); got != res.Clock {
		t.Errorf("clock gauge = %v, want %v", got, res.Clock)
	}
	snap := reg.Histogram("haccs_client_train_seconds", "", trainWallBuckets).Snapshot()
	if snap.Count != uint64(wantTrained) {
		t.Errorf("train histogram count = %d, want %d", snap.Count, wantTrained)
	}
}

// TestRunTraceJSONLReconstruction streams the trace through the JSONL
// sink and reconstructs the selected-client lists from the decoded
// file, mirroring how an operator replays a haccs-sim trace.
func TestRunTraceJSONLReconstruction(t *testing.T) {
	clients := buildClients(t, 6, 40, 4)
	cfg := smallConfig(4)
	cfg.MaxRounds = 5
	cfg.RecordSelections = true
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	cfg.Tracer = sink

	strat := &fixedStrategy{order: [][]int{{1, 2}, {3, 4}, {0, 5}}}
	res := NewEngine(cfg, clients, strat).Run()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var selections [][]int
	for _, e := range events {
		if e.Kind == telemetry.KindSelection {
			selections = append(selections, e.Clients)
		}
	}
	if !reflect.DeepEqual(selections, res.Selected) {
		t.Errorf("JSONL selections %v != result %v", selections, res.Selected)
	}
}

// TestRunDropoutEvents checks unavailability reporting under a dropout
// model and that telemetry does not perturb the run itself.
func TestRunDropoutEvents(t *testing.T) {
	clients := buildClients(t, 6, 40, 5)
	base := smallConfig(5)
	base.MaxRounds = 8
	base.ClientsPerRound = 6
	base.RecordSelections = true
	base.Dropout = simnet.TransientDropout{
		Rate: 0.3,
		Seed: 99,
	}

	run := func(traced bool) (*Result, *telemetry.MemorySink) {
		cfg := base
		var sink *telemetry.MemorySink
		if traced {
			sink = &telemetry.MemorySink{}
			cfg.Tracer = sink
			cfg.Metrics = telemetry.NewRegistry()
		}
		strat := &fixedStrategy{order: [][]int{{0, 1, 2, 3, 4, 5}}}
		return NewEngine(cfg, clients, strat).Run(), sink
	}
	plain, _ := run(false)
	traced, sink := run(true)

	// Telemetry must be a pure observer: bit-identical history.
	if !reflect.DeepEqual(plain.Selected, traced.Selected) || plain.Clock != traced.Clock {
		t.Fatal("telemetry changed the run outcome")
	}
	downs := sink.Filter(telemetry.KindUnavailable)
	if len(downs) == 0 {
		t.Fatal("no unavailability events despite 30% dropout over 8 rounds")
	}
	for _, e := range downs {
		if len(e.Clients) == 0 {
			t.Errorf("empty unavailable event: %+v", e)
		}
	}
}
