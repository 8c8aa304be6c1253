package rounds

import (
	"reflect"
	"testing"

	"haccs/internal/telemetry"
)

// TestSyncOutcomeRule pins the extracted sync outcome rule: the
// partition of a selection into reporters / cut / failed, its order,
// and what the round costs.
func TestSyncOutcomeRule(t *testing.T) {
	lat := []float64{1, 2, 3, 10, 20}
	latency := func(id int) float64 { return lat[id] }
	cases := []struct {
		name           string
		selected       []int
		deadline       float64
		failed, lost   []bool
		reporters      []int // selection slots
		cut, failedIDs []int
		roundTime      float64
	}{
		{
			name:      "no deadline: the round lasts for its slowest reporter",
			selected:  []int{4, 0, 3},
			reporters: []int{0, 1, 2}, roundTime: 20,
		},
		{
			name:     "deadline with cuts: the server waits out the deadline",
			selected: []int{0, 3, 1, 4}, deadline: 5,
			reporters: []int{0, 2}, cut: []int{3, 4}, roundTime: 5,
		},
		{
			name:     "deadline nobody misses: the slowest reporter, not the deadline",
			selected: []int{2, 0}, deadline: 5,
			reporters: []int{0, 1}, roundTime: 3,
		},
		{
			name:     "latency equal to the deadline: a reporter, not a cut",
			selected: []int{0, 2}, deadline: 3,
			reporters: []int{0, 1}, roundTime: 3,
		},
		{
			name:     "failure without a deadline: the missing client's expected reply time",
			selected: []int{0, 4, 1}, failed: []bool{false, true, false},
			reporters: []int{0, 2}, failedIDs: []int{4}, roundTime: 20,
		},
		{
			name:     "failure with a deadline: failed wins over cut, the deadline is the cost",
			selected: []int{3, 0, 4}, deadline: 5, failed: []bool{true, false, false},
			reporters: []int{1}, cut: []int{4}, failedIDs: []int{3}, roundTime: 5,
		},
		{
			name:     "everyone lost",
			selected: []int{1, 3}, deadline: 5, failed: []bool{true, false},
			cut: []int{3}, failedIDs: []int{1}, roundTime: 5,
		},
		{
			name:     "whole-shard loss is a cut, not a death, even for a failed slot",
			selected: []int{0, 1, 2}, failed: []bool{false, true, false}, lost: []bool{false, true, true},
			reporters: []int{0}, cut: []int{1, 2}, roundTime: 3,
		},
	}
	var o SyncOutcome
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o.Resolve(tc.selected, latency, tc.deadline, tc.failed, tc.lost)
			same := func(got, want []int) bool {
				return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
			}
			if !same(o.Reporters, tc.reporters) || !same(o.Cut, tc.cut) || !same(o.Failed, tc.failedIDs) {
				t.Fatalf("reporters/cut/failed = %v/%v/%v, want %v/%v/%v",
					o.Reporters, o.Cut, o.Failed, tc.reporters, tc.cut, tc.failedIDs)
			}
			if n := len(o.Reporters) + len(o.Cut) + len(o.Failed); n != len(tc.selected) {
				t.Fatalf("%d of %d selected clients accounted for", n, len(tc.selected))
			}
			if o.RoundTime != tc.roundTime {
				t.Fatalf("roundTime = %v, want %v", o.RoundTime, tc.roundTime)
			}
		})
	}
}

// TestHierDriverSpanTree checks the hierarchical root honours
// Config.Spans with the phase names the flat driver uses.
func TestHierDriverSpanTree(t *testing.T) {
	sink := &telemetry.MemorySink{}
	shards := make([]ShardProxy, 2)
	for slot := range shards {
		fs := &fakeShard{id: slot, proxies: map[int]*hierTestProxy{}}
		for id := slot; id < 4; id += 2 {
			fs.proxies[id] = &hierTestProxy{id: id, lat: 2}
			fs.clients = append(fs.clients, ShardClient{ID: id, Latency: 2})
		}
		shards[slot] = fs
	}
	hier, err := NewHierDriver(Config{ClientsPerRound: 4, Spans: telemetry.NewSpanTracer(sink, nil)},
		HierConfig{Mode: ModeSync}, shards, &scriptStrategy{selections: [][]int{{0, 1, 2, 3}}}, make([]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	hier.RunRound(0)

	byName := map[string][]telemetry.Event{}
	for _, e := range sink.Filter(telemetry.KindSpan) {
		byName[e.Span] = append(byName[e.Span], e)
	}
	if len(byName["round"]) != 1 {
		t.Fatalf("round spans = %d, want 1", len(byName["round"]))
	}
	root := byName["round"][0]
	for _, phase := range []string{"availability", "select", "aggregate", "update"} {
		evs := byName[phase]
		if len(evs) != 1 || evs[0].ParentID != root.SpanID || evs[0].TraceID != root.TraceID {
			t.Fatalf("%q spans = %+v, want one child of the round span", phase, evs)
		}
	}
}

// instantProxy replies at once with a reused buffer, so the only
// allocations a round makes are the runtime's own.
type instantProxy struct{ out []float64 }

func (p *instantProxy) Train(int, int, int, []float64, telemetry.SpanContext) (Result, error) {
	return Result{Params: p.out, NumSamples: 1}, nil
}
func (p *instantProxy) Latency() float64 { return 1 }

// rotateStrategy walks the roster k at a time into a reused slice.
type rotateStrategy struct {
	next int
	buf  []int
}

func (s *rotateStrategy) Select(_ int, available []bool, k int) []int {
	s.buf = s.buf[:0]
	for tries := 0; tries < len(available) && len(s.buf) < k; tries++ {
		if available[s.next] {
			s.buf = append(s.buf, s.next)
		}
		s.next = (s.next + 1) % len(available)
	}
	return s.buf
}
func (*rotateStrategy) Update(int, []int, []float64) {}

// instantShard answers a sync command at once from reused buffers:
// every selected client reports one sample, so the only allocations a
// round makes are the root's own.
type instantShard struct {
	id      int
	clients []ShardClient
	rep     ShardReport
}

func (s *instantShard) ID() int                { return s.id }
func (s *instantShard) Clients() []ShardClient { return s.clients }

func (s *instantShard) Exec(cmd ShardCmd) (*ShardReport, error) {
	s.rep.Reporters = s.rep.Reporters[:0]
	for _, id := range cmd.Selected {
		s.rep.Reporters = append(s.rep.Reporters, Result{ClientID: id, NumSamples: 1})
	}
	s.rep.Samples = len(cmd.Selected)
	s.rep.Partial = append(s.rep.Partial[:0], cmd.Params...)
	return &s.rep, nil
}

// TestRunRoundAllocs pins the steady-state allocations of one round
// with every observer off: the shared fan-out's per-slot sink must not
// cost more than the per-driver dispatch loops it replaced, and the
// sharded sync round — two shards, the shared sync round over the shard
// leg — no more than it did with its own body. Availability is kept in
// place, so no round allocates a dropout mask: Driver 4 and 18
// allocs/round at parallelism 1 and 8, AsyncDriver with BufferK 4 9 and
// 15, the sharded round 6 (one fewer each than with a fresh mask).
func TestRunRoundAllocs(t *testing.T) {
	transport := func(par int) fakeTransport {
		proxies := make([]Proxy, 64)
		for i := range proxies {
			proxies[i] = &instantProxy{out: make([]float64, 256)}
		}
		return fakeTransport{proxies: proxies, par: par}
	}
	measure := func(r Runner) float64 {
		round := 0
		for ; round < 50; round++ {
			r.RunRound(round)
		}
		return testing.AllocsPerRun(100, func() {
			r.RunRound(round)
			round++
		})
	}
	for _, tc := range []struct {
		par         int
		sync, async float64
	}{{1, 4, 9}, {8, 18, 15}} {
		cfg := Config{ClientsPerRound: 8}
		if got := measure(NewDriver(cfg, transport(tc.par), &rotateStrategy{}, make([]float64, 256))); got > tc.sync {
			t.Errorf("Driver parallelism %d: %v allocs/round, want <= %v", tc.par, got, tc.sync)
		}
		if got := measure(NewAsyncDriver(cfg, AsyncConfig{BufferK: 4}, transport(tc.par), &rotateStrategy{}, make([]float64, 256))); got > tc.async {
			t.Errorf("AsyncDriver parallelism %d: %v allocs/round, want <= %v", tc.par, got, tc.async)
		}
	}
	shards := []ShardProxy{&instantShard{id: 0}, &instantShard{id: 1}}
	for id := 0; id < 64; id++ {
		s := shards[id%2].(*instantShard)
		s.clients = append(s.clients, ShardClient{ID: id, Latency: 1})
	}
	hier, err := NewHierDriver(Config{ClientsPerRound: 8}, HierConfig{Mode: ModeSync}, shards, &rotateStrategy{}, make([]float64, 256))
	if err != nil {
		t.Fatal(err)
	}
	if got := measure(hier); got > 6 {
		t.Errorf("sharded sync HierDriver: %v allocs/round, want <= 6", got)
	}
}
