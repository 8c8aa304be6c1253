package rounds

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"haccs/internal/fleet"
	"haccs/internal/telemetry"
)

// hierTestProxy is a deterministic in-process client: training returns
// params + (id+1) with NumSamples 1, so every aggregate over a
// power-of-two reporter count is exact dyadic-rational arithmetic and
// the flat-vs-hierarchical comparison is bitwise.
type hierTestProxy struct {
	id   int
	lat  float64
	down bool // every Train fails
}

func (p *hierTestProxy) Train(round, worker, slot int, params []float64, _ telemetry.SpanContext) (Result, error) {
	if p.down {
		return Result{}, errors.New("hier test client down")
	}
	out := make([]float64, len(params))
	for i, v := range params {
		out[i] = v + float64(p.id+1)
	}
	return Result{ClientID: p.id, Params: out, NumSamples: 1, Loss: float64(p.id)}, nil
}

func (p *hierTestProxy) Latency() float64 { return p.lat }

type hierTestTransport struct{ proxies []Proxy }

func (t hierTestTransport) Proxies() []Proxy { return t.proxies }
func (t hierTestTransport) Parallelism() int { return len(t.proxies) }

// fakeShard runs the shard side of a sync round in-process: it trains
// every selected client (including to-be-cut stragglers, matching the
// flat wire semantics), recomputes the deadline cut, and returns the
// unnormalized sample-weighted partial over its reporters.
type fakeShard struct {
	id       int
	clients  []ShardClient
	proxies  map[int]*hierTestProxy
	deadline float64
	fail     func(round int) bool
}

func (s *fakeShard) ID() int                { return s.id }
func (s *fakeShard) Clients() []ShardClient { return s.clients }

func (s *fakeShard) Exec(cmd ShardCmd) (*ShardReport, error) {
	if s.fail != nil && s.fail(cmd.Round) {
		return nil, errors.New("fake shard down")
	}
	rep := &ShardReport{}
	var partial []float64
	for _, id := range cmd.Selected {
		p := s.proxies[id]
		res, err := p.Train(cmd.Round, 0, 0, cmd.Params, telemetry.SpanContext{})
		if err != nil {
			rep.Failed = append(rep.Failed, id)
			continue
		}
		if s.deadline > 0 && p.lat > s.deadline {
			rep.Cut = append(rep.Cut, id)
			continue
		}
		if partial == nil {
			partial = make([]float64, len(res.Params))
		}
		for i, v := range res.Params {
			partial[i] += float64(res.NumSamples) * v
		}
		rep.Samples += res.NumSamples
		rep.Reporters = append(rep.Reporters, Result{
			ClientID:   id,
			NumSamples: res.NumSamples,
			Loss:       res.Loss,
		})
	}
	rep.Partial = partial
	rep.BaseVersion = cmd.Version
	return rep, nil
}

// buildHierFixture partitions n clients over two fake shards (even IDs
// on shard 0, odd on shard 1) and returns matching flat and
// hierarchical drivers sharing latencies, script, and deadline.
func buildHierFixture(t *testing.T, n int, lats []float64, deadline float64, script [][]int, dim int) (*Driver, *HierDriver) {
	t.Helper()
	proxies := make([]Proxy, n)
	byID := make(map[int]*hierTestProxy, n)
	for i := 0; i < n; i++ {
		p := &hierTestProxy{id: i, lat: lats[i%len(lats)]}
		proxies[i] = p
		byID[i] = p
	}
	flat := NewDriver(Config{ClientsPerRound: 4, Deadline: deadline},
		hierTestTransport{proxies}, &scriptStrategy{selections: script}, make([]float64, dim))

	shards := make([]ShardProxy, 2)
	for slot := 0; slot < 2; slot++ {
		fs := &fakeShard{id: slot, proxies: map[int]*hierTestProxy{}, deadline: deadline}
		for id, p := range byID {
			if id%2 == slot {
				fs.proxies[id] = p
				fs.clients = append(fs.clients, ShardClient{ID: id, Latency: p.lat})
			}
		}
		shards[slot] = fs
	}
	hier, err := NewHierDriver(Config{ClientsPerRound: 4, Deadline: deadline},
		HierConfig{Mode: ModeSync}, shards, &scriptStrategy{selections: script}, make([]float64, dim))
	if err != nil {
		t.Fatal(err)
	}
	return flat, hier
}

// TestHierMatchesFlatBitwise pins the core hierarchical-FedAvg
// property: with exact arithmetic (integer updates, unit sample
// weights, power-of-two reporter counts) the shard grouping is
// invisible and the hierarchical trajectory equals the flat one bit
// for bit, round by round.
func TestHierMatchesFlatBitwise(t *testing.T) {
	script := [][]int{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
		{1, 3, 5, 7},
		{0, 2, 4, 6},
		{2, 3, 6, 7},
		{0, 1, 4, 5},
	}
	flat, hier := buildHierFixture(t, 8, []float64{2}, 0, script, 5)
	for r := 0; r < len(script); r++ {
		fo := flat.RunRound(r)
		ho := hier.RunRound(r)
		if !fo.Aggregated || !ho.Aggregated {
			t.Fatalf("round %d: aggregated flat=%v hier=%v", r, fo.Aggregated, ho.Aggregated)
		}
		for i := range flat.Global() {
			if flat.Global()[i] != hier.Global()[i] {
				t.Fatalf("round %d param %d: flat %v hier %v", r, i, flat.Global()[i], hier.Global()[i])
			}
		}
		if flat.Clock() != hier.Clock() {
			t.Fatalf("round %d clock: flat %v hier %v", r, flat.Clock(), hier.Clock())
		}
	}
}

// TestHierMatchesFlatWithCuts repeats the bitwise comparison with a
// straggler deadline: clients 8 and 9 (latency 10 > deadline 5) are
// cut on both paths, leaving power-of-two reporter counts so the
// arithmetic stays exact. The round metrics must read the same on both
// sides too — per-client virtual latency included, which counts every
// client whose training returned, cut stragglers with it.
func TestHierMatchesFlatWithCuts(t *testing.T) {
	lats := []float64{2, 2, 2, 2, 2, 2, 2, 2, 10, 10}
	script := [][]int{
		{0, 1, 8, 9}, // reporters {0,1}, cut {8,9}
		{2, 3, 4, 5}, // clean round
		{6, 7, 8, 9}, // reporters {6,7}, cut {8,9}
		{0, 2, 4, 8}, // reporters {0,2,4}? no — 3 reporters is inexact
	}
	// Replace the last round: one straggler, leaving 2 reporters + a
	// repeat pair keeps counts in {2,4}.
	script[3] = []int{1, 3, 8, 9}
	n := 10
	proxies := make([]Proxy, n)
	byID := make(map[int]*hierTestProxy, n)
	for i := 0; i < n; i++ {
		p := &hierTestProxy{id: i, lat: lats[i]}
		proxies[i] = p
		byID[i] = p
	}
	const deadline = 5.0
	flatReg, hierReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	flat := NewDriver(Config{ClientsPerRound: 4, Deadline: deadline, Metrics: flatReg},
		hierTestTransport{proxies}, &scriptStrategy{selections: script}, make([]float64, 3))
	shards := make([]ShardProxy, 2)
	for slot := 0; slot < 2; slot++ {
		fs := &fakeShard{id: slot, proxies: map[int]*hierTestProxy{}, deadline: deadline}
		for id, p := range byID {
			if id%2 == slot {
				fs.proxies[id] = p
				fs.clients = append(fs.clients, ShardClient{ID: id, Latency: p.lat})
			}
		}
		shards[slot] = fs
	}
	hier, err := NewHierDriver(Config{ClientsPerRound: 4, Deadline: deadline, Metrics: hierReg},
		HierConfig{Mode: ModeSync}, shards, &scriptStrategy{selections: script}, make([]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < len(script); r++ {
		fo := flat.RunRound(r)
		ho := hier.RunRound(r)
		if len(fo.Cut) != len(ho.Cut) {
			t.Fatalf("round %d cut: flat %v hier %v", r, fo.Cut, ho.Cut)
		}
		for i := range flat.Global() {
			if flat.Global()[i] != hier.Global()[i] {
				t.Fatalf("round %d param %d: flat %v hier %v", r, i, flat.Global()[i], hier.Global()[i])
			}
		}
		if flat.Clock() != hier.Clock() {
			t.Fatalf("round %d clock: flat %v hier %v", r, flat.Clock(), hier.Clock())
		}
	}
	// Three rounds with cuts wait out the deadline, the clean one lasts
	// for its slowest reporter.
	if c := hier.Clock(); c != 3*deadline+2 {
		t.Fatalf("clock = %v, want %v", c, 3*deadline+2)
	}
	for _, name := range []string{"haccs_client_virtual_latency_seconds", "haccs_round_virtual_seconds"} {
		f := flatReg.Histogram(name, "", VirtualBuckets).Snapshot()
		h := hierReg.Histogram(name, "", VirtualBuckets).Snapshot()
		if f.Count != h.Count || f.Sum != h.Sum || f.Count == 0 {
			t.Errorf("%s: flat count %d sum %v, hier count %d sum %v", name, f.Count, f.Sum, h.Count, h.Sum)
		}
	}
	for _, name := range []string{"haccs_clients_straggler_cut_total", "haccs_rounds_total", "haccs_clients_selected_total"} {
		f, h := flatReg.Counter(name, "").Value(), hierReg.Counter(name, "").Value()
		if f != h || f == 0 {
			t.Errorf("%s: flat %v, hier %v", name, f, h)
		}
	}
}

// TestHierShardFailure checks whole-shard loss semantics: the failed
// shard's selected clients are discarded for the round (Cut) but stay
// alive, and the surviving shard's partial still aggregates with
// renormalized weights.
func TestHierShardFailure(t *testing.T) {
	script := [][]int{
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{0, 1, 2, 3},
	}
	n := 8
	byID := make(map[int]*hierTestProxy, n)
	for i := 0; i < n; i++ {
		byID[i] = &hierTestProxy{id: i, lat: 2}
	}
	shards := make([]ShardProxy, 2)
	for slot := 0; slot < 2; slot++ {
		fs := &fakeShard{id: slot, proxies: map[int]*hierTestProxy{}}
		if slot == 1 {
			fs.fail = func(round int) bool { return round == 1 }
		}
		for id, p := range byID {
			if id%2 == slot {
				fs.proxies[id] = p
				fs.clients = append(fs.clients, ShardClient{ID: id, Latency: p.lat})
			}
		}
		shards[slot] = fs
	}
	hier, err := NewHierDriver(Config{ClientsPerRound: 4},
		HierConfig{Mode: ModeSync}, shards, &scriptStrategy{selections: script}, make([]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if o := hier.RunRound(0); len(o.Reporters) != 4 {
		t.Fatalf("round 0 reporters = %v", o.Reporters)
	}
	o := hier.RunRound(1)
	if len(o.Cut) != 2 || len(o.Failed) != 0 {
		t.Fatalf("round 1: cut %v failed %v, want shard 1's clients cut", o.Cut, o.Failed)
	}
	if len(o.Reporters) != 2 || !o.Aggregated {
		t.Fatalf("round 1: reporters %v aggregated %v", o.Reporters, o.Aggregated)
	}
	for _, id := range []int{1, 3} {
		if hier.Dead(id) {
			t.Fatalf("client %d marked dead after shard failure", id)
		}
	}
	// The shard recovers: the full selection reports again.
	if o := hier.RunRound(2); len(o.Reporters) != 4 {
		t.Fatalf("round 2 reporters = %v", o.Reporters)
	}
	sts := hier.ShardStatuses()
	if sts[1].Failures != 1 {
		t.Fatalf("shard 1 failures = %d, want 1", sts[1].Failures)
	}
}

// lyingShard applies lie to every report its shard returns.
type lyingShard struct {
	ShardProxy
	lie func(*ShardReport)
}

func (s lyingShard) Exec(cmd ShardCmd) (*ShardReport, error) {
	rep, err := s.ShardProxy.Exec(cmd)
	if rep != nil && s.lie != nil {
		s.lie(rep)
	}
	return rep, err
}

// TestHierShardReportedFailure checks that a client its shard reports
// failed is failed at the root too — marked dead and not credited —
// exactly as the flat driver treats a dead transport.
func TestHierShardReportedFailure(t *testing.T) {
	script := [][]int{{0, 1, 2, 3}}
	flat, hier := buildHierFixture(t, 4, []float64{2}, 0, script, 2)
	hier.shards[1].(*fakeShard).proxies[3].down = true // shared with the flat driver
	fo, ho := flat.RunRound(0), hier.RunRound(0)
	for _, o := range []Outcome{fo, ho} {
		if !reflect.DeepEqual(o.Failed, []int{3}) || !reflect.DeepEqual(o.Reporters, []int{0, 1, 2}) {
			t.Fatalf("failed %v reporters %v, want failed [3] reporters [0 1 2]", o.Failed, o.Reporters)
		}
	}
	if !flat.Dead(3) || !hier.Dead(3) {
		t.Fatalf("client 3 dead: flat %v hier %v, want both", flat.Dead(3), hier.Dead(3))
	}
	if !reflect.DeepEqual(flat.Global(), hier.Global()) {
		t.Fatalf("global: flat %v hier %v", flat.Global(), hier.Global())
	}
}

// TestHierReportValidation checks that a shard whose sync report
// disagrees with the root's own view is lost for the round: its
// selected clients are cut (and stay alive), the honest shard
// aggregates alone, and the liar's failure count reads 1. Each row
// tells one lie; the other checks would pass it.
func TestHierReportValidation(t *testing.T) {
	cases := []struct {
		name     string
		deadline float64 // the liar's, where the root has none
		lie      func(*ShardReport)
	}{
		{"deadline arithmetic", 1, nil},
		{"an extra cut client", 0, func(r *ShardReport) { r.Cut = append(r.Cut, 5) }},
		{"partial weight off the reporters' sum", 0, func(r *ShardReport) { r.Samples++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Clients 0-5: even IDs on the honest shard, odd on the liar;
			// 0-3 are selected.
			honest := &fakeShard{id: 0, proxies: map[int]*hierTestProxy{}}
			lying := &fakeShard{id: 1, proxies: map[int]*hierTestProxy{}, deadline: tc.deadline}
			for id := 0; id < 6; id++ {
				fs := honest
				if id%2 == 1 {
					fs = lying
				}
				fs.proxies[id] = &hierTestProxy{id: id, lat: 2}
				fs.clients = append(fs.clients, ShardClient{ID: id, Latency: 2})
			}
			hier, err := NewHierDriver(Config{ClientsPerRound: 4},
				HierConfig{Mode: ModeSync}, []ShardProxy{honest, lyingShard{lying, tc.lie}},
				&scriptStrategy{selections: [][]int{{0, 1, 2, 3}}}, make([]float64, 2))
			if err != nil {
				t.Fatal(err)
			}
			o := hier.RunRound(0)
			if !reflect.DeepEqual(o.Reporters, []int{0, 2}) || !reflect.DeepEqual(o.Cut, []int{1, 3}) || len(o.Failed) != 0 {
				t.Fatalf("reporters %v cut %v failed %v, want reporters [0 2] cut [1 3]", o.Reporters, o.Cut, o.Failed)
			}
			// Clients 0 and 2 train to params+1 and params+3.
			for i, v := range hier.Global() {
				if v != 2 {
					t.Fatalf("global[%d] = %v, want 2 (the honest shard alone)", i, v)
				}
			}
			if f := hier.ShardStatuses()[1].Failures; f != 1 {
				t.Fatalf("liar failures = %d, want 1", f)
			}
			for id := 0; id < 6; id++ {
				if hier.Dead(id) {
					t.Fatalf("client %d marked dead", id)
				}
			}
		})
	}
}

// TestHierRosterValidation checks constructor rejection of overlapping
// and non-dense shard rosters.
func TestHierRosterValidation(t *testing.T) {
	mk := func(id int, clients ...int) *fakeShard {
		fs := &fakeShard{id: id, proxies: map[int]*hierTestProxy{}}
		for _, c := range clients {
			fs.clients = append(fs.clients, ShardClient{ID: c, Latency: 1})
		}
		return fs
	}
	cases := []struct {
		name   string
		shards []ShardProxy
		want   string
	}{
		{"overlap", []ShardProxy{mk(0, 0, 1), mk(1, 1, 2)}, "owned by shards"},
		{"out of range", []ShardProxy{mk(0, 0, 1), mk(1, 2, 5)}, "outside the dense roster"},
		{"none", []ShardProxy{}, "at least one shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewHierDriver(Config{ClientsPerRound: 2}, HierConfig{Mode: ModeSync},
				tc.shards, &scriptStrategy{}, make([]float64, 1))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestHierCheckpointRoundTrip checks the driver state component
// restores clock, dead mask, model version and async bookkeeping.
func TestHierCheckpointRoundTrip(t *testing.T) {
	script := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	_, hier := buildHierFixture(t, 8, []float64{2}, 0, script, 3)
	hier.RunRound(0)
	hier.RunRound(1)
	state, err := hier.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	global := append([]float64(nil), hier.Global()...)

	_, restored := buildHierFixture(t, 8, []float64{2}, 0, script, 3)
	if err := restored.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if err := restored.SetGlobal(global); err != nil {
		t.Fatal(err)
	}
	if restored.Clock() != hier.Clock() || restored.Version() != hier.Version() {
		t.Fatalf("restored clock/version %v/%d, want %v/%d",
			restored.Clock(), restored.Version(), hier.Clock(), hier.Version())
	}
	// Wrong-geometry snapshots are rejected.
	_, small := buildHierFixture(t, 4, []float64{2}, 0, script, 3)
	if err := small.RestoreState(state); err == nil {
		t.Fatal("restore into a smaller roster should fail")
	}
}

// asyncFakeShard scripts the async shard surface: each Exec returns a
// fixed delta with the shard's current base version, tracking resyncs.
type asyncFakeShard struct {
	id      int
	clients []ShardClient
	delta   float64
	clock   float64
	base    int
	execs   int
}

func (s *asyncFakeShard) ID() int                { return s.id }
func (s *asyncFakeShard) Clients() []ShardClient { return s.clients }

func (s *asyncFakeShard) Exec(cmd ShardCmd) (*ShardReport, error) {
	s.execs++
	if cmd.Params != nil {
		s.base = cmd.Version
	}
	s.clock += float64(s.id + 1)
	return &ShardReport{
		Partial:     []float64{s.delta},
		Samples:     1,
		Reporters:   []Result{{ClientID: s.clients[0].ID, NumSamples: 1, Loss: 0.5}},
		LocalClock:  s.clock,
		BaseVersion: s.base,
	}, nil
}

// TestHierAsyncMerge checks the staleness-weighted async merge: with
// ResyncEvery 2 the shards' bases lag by one version on odd cycles,
// discounting their deltas by 1/(1+τ)^α, and the root clock tracks the
// shard-local frontier.
func TestHierAsyncMerge(t *testing.T) {
	mkShards := func() []ShardProxy {
		return []ShardProxy{
			&asyncFakeShard{id: 0, clients: []ShardClient{{ID: 0, Latency: 1}}, delta: 2},
			&asyncFakeShard{id: 1, clients: []ShardClient{{ID: 1, Latency: 1}}, delta: 4},
		}
	}
	run := func() []float64 {
		d, err := NewHierDriver(Config{ClientsPerRound: 2},
			HierConfig{Mode: ModeAsync, ResyncEvery: 2, Async: AsyncConfig{StalenessExponent: 1}},
			mkShards(), nil, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		var traj []float64
		for r := 0; r < 4; r++ {
			o := d.RunRound(r)
			if !o.Aggregated {
				t.Fatalf("cycle %d did not aggregate", r)
			}
			traj = append(traj, d.Global()[0])
		}
		if d.Version() != 4 {
			t.Fatalf("version = %d, want 4", d.Version())
		}
		if d.Clock() != 8 {
			// Shard 1 advances its local clock by 2 per cycle; the root
			// clock rides the frontier: 2, 4, 6, 8.
			t.Fatalf("clock = %v, want 8", d.Clock())
		}
		return traj
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("async trajectory not deterministic at cycle %d: %v vs %v", i, a, b)
		}
	}
	// Cycle 0 (resync, τ=0 both): equal weights → (2+4)/2 = 3.
	if a[0] != 3 {
		t.Fatalf("cycle 0 global = %v, want 3", a[0])
	}
	// Cycle 1 (no resync): both bases lag one version (τ=1), weights
	// still equal → another +3.
	if a[1] != 6 {
		t.Fatalf("cycle 1 global = %v, want 6", a[1])
	}
}

// TestHierAsyncStaleDrop checks MaxStaleness excludes a lagging
// shard's flush entirely.
func TestHierAsyncStaleDrop(t *testing.T) {
	fresh := &asyncFakeShard{id: 0, clients: []ShardClient{{ID: 0, Latency: 1}}, delta: 2}
	stale := &staleShard{asyncFakeShard{id: 1, clients: []ShardClient{{ID: 1, Latency: 1}}, delta: 100}}
	d, err := NewHierDriver(Config{ClientsPerRound: 2},
		HierConfig{Mode: ModeAsync, ResyncEvery: 1, Async: AsyncConfig{MaxStaleness: 2, StalenessExponent: 1}},
		[]ShardProxy{fresh, stale}, nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		d.RunRound(r)
	}
	// The stale shard always reports a base 10 versions behind; its
	// delta of 100 must never reach the global model.
	if g := d.Global()[0]; g != 10 {
		t.Fatalf("global = %v, want 10 (five merges of the fresh shard's +2)", g)
	}
}

// staleShard reports a base version far behind whatever the root sent.
type staleShard struct{ asyncFakeShard }

func (s *staleShard) Exec(cmd ShardCmd) (*ShardReport, error) {
	rep, err := s.asyncFakeShard.Exec(cmd)
	if rep != nil {
		rep.BaseVersion = cmd.Version - 10
	}
	return rep, err
}

// TestHierAsyncStalenessDiscount checks that the root discounts a
// shard's flush by its staleness, (1+τ)^-α: a shard ten versions behind
// weighs 1/11 of a fresh one, not the same.
func TestHierAsyncStalenessDiscount(t *testing.T) {
	fresh := &asyncFakeShard{id: 0, clients: []ShardClient{{ID: 0, Latency: 1}}, delta: 2}
	stale := &staleShard{asyncFakeShard{id: 1, clients: []ShardClient{{ID: 1, Latency: 1}}, delta: 100}}
	d, err := NewHierDriver(Config{ClientsPerRound: 2},
		HierConfig{Mode: ModeAsync, Async: AsyncConfig{StalenessExponent: 1}},
		[]ShardProxy{fresh, stale}, nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	d.RunRound(0)
	want := (2 + 100.0/11) / (1 + 1.0/11)
	if g := d.Global()[0]; math.Abs(g-want) > 1e-12 {
		t.Fatalf("global = %v, want %v (the stale delta discounted by 1/11)", g, want)
	}
}

// TestHierAsyncReportValidation feeds an async root that keeps a fleet
// registry (as cmd/haccs-root does) one lie per row. The lying shard's
// report must be refused whole: the root does not panic, the liar's
// failure count and haccs_shard_failures_total both read 1, no client
// is marked dead, the liar's base and clock do not advance, the root
// clock follows the honest shard alone, and the honest shard's flush
// merges alone.
func TestHierAsyncReportValidation(t *testing.T) {
	cases := []struct {
		name string
		lie  func(*ShardReport)
	}{
		{"cut client outside the roster", func(r *ShardReport) { r.Cut = []int{7} }},
		{"negative cut client", func(r *ShardReport) { r.Cut = []int{-1} }},
		{"failed client of another shard", func(r *ShardReport) { r.Failed = []int{0} }},
		{"failed client outside the roster", func(r *ShardReport) { r.Failed = []int{2} }},
		{"reporter of another shard", func(r *ShardReport) { r.Reporters[0].ClientID = 0 }},
		{"weight off the reporters' sum", func(r *ShardReport) { r.Samples++ }},
		{"partial of the wrong dimension", func(r *ShardReport) { r.Partial = []float64{1, 2} }},
		{"infinite local clock", func(r *ShardReport) { r.LocalClock = math.Inf(1) }},
		{"NaN local clock", func(r *ShardReport) { r.LocalClock = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			honest := &asyncFakeShard{id: 0, clients: []ShardClient{{ID: 0, Latency: 1}}, delta: 2}
			liar := &asyncFakeShard{id: 1, clients: []ShardClient{{ID: 1, Latency: 1}}, delta: 4}
			d, err := NewHierDriver(Config{ClientsPerRound: 2, Metrics: reg, Fleet: fleet.NewRegistry(2, fleet.Options{})},
				HierConfig{Mode: ModeAsync, Async: AsyncConfig{StalenessExponent: 1}},
				[]ShardProxy{honest, lyingShard{liar, tc.lie}}, nil, []float64{0})
			if err != nil {
				t.Fatal(err)
			}
			o := d.RunRound(0)
			if !reflect.DeepEqual(o.Reporters, []int{0}) || len(o.Cut)+len(o.Failed) != 0 {
				t.Fatalf("reporters %v cut %v failed %v, want the honest client 0 alone", o.Reporters, o.Cut, o.Failed)
			}
			if g := d.Global()[0]; g != 2 {
				t.Fatalf("global = %v, want 2 (the honest flush alone)", g)
			}
			st := d.ShardStatuses()[1]
			if st.Failures != 1 {
				t.Fatalf("liar failures = %d, want 1", st.Failures)
			}
			if got := reg.CounterVec("haccs_shard_failures_total", "", "shard").With("1").Value(); got != 1 {
				t.Fatalf("haccs_shard_failures_total{shard=1} = %v, want 1", got)
			}
			if st.LocalClock != 0 || st.BaseVersion != 0 {
				t.Fatalf("liar clock/base advanced to %v/%d", st.LocalClock, st.BaseVersion)
			}
			if c := d.Clock(); c != 1 {
				t.Fatalf("root clock = %v, want 1 (the honest shard's)", c)
			}
			for id := 0; id < 2; id++ {
				if d.Dead(id) {
					t.Fatalf("client %d marked dead", id)
				}
			}
		})
	}
}
