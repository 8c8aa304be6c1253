package fleet

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"haccs/internal/telemetry"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0, 1}})
	if got := r.State(); !reflect.DeepEqual(got, State{}) {
		t.Errorf("nil State() = %+v, want zero", got)
	}
	if r.Size() != 0 {
		t.Errorf("nil Size() = %d, want 0", r.Size())
	}
}

func TestNilRegistryZeroAllocs(t *testing.T) {
	var r *Registry
	obs := RoundObservation{Round: 1, Selected: []int{0, 1}, Cut: []int{1}}
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveRound(obs)
		_ = r.State()
	})
	if allocs != 0 {
		t.Errorf("nil registry fast path allocates %v per round, want 0", allocs)
	}
}

func TestNewRegistryPanicsOnEmptyRoster(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRegistry(0) did not panic")
		}
	}()
	NewRegistry(0, Options{})
}

func TestObserveRoundCounters(t *testing.T) {
	r := NewRegistry(4, Options{})
	r.ObserveRound(RoundObservation{
		Round:    3,
		Selected: []int{0, 1, 2},
		Reports: []ClientReport{
			{ClientID: 0, Loss: 1.5, NumSamples: 10, VirtualSec: 2.0},
			{ClientID: 1, Loss: 0.7, NumSamples: 20, VirtualSec: 4.0},
		},
		Cut:          []int{2},
		Unavailable:  []int{3},
		RoundVirtual: 4.0,
		Clock:        4.0,
	})
	st := r.State()
	if st.Rounds != 1 || st.Clock != 4.0 || st.TotalSelected != 3 {
		t.Fatalf("header = %+v", st)
	}
	c0 := st.Clients[0]
	if c0.Selected != 1 || c0.Reported != 1 || c0.LastSeen != 3 || c0.LastLoss != 1.5 || c0.Samples != 10 {
		t.Errorf("client 0 = %+v", c0)
	}
	// First latency sample seeds the EWMA directly.
	if c0.LatencyEWMA != 2.0 || c0.LatencyP50 != 2.0 {
		t.Errorf("client 0 latency = %+v", c0)
	}
	if c0.Flakiness != 0 {
		t.Errorf("clean report moved flakiness to %v", c0.Flakiness)
	}
	c2 := st.Clients[2]
	if c2.StragglerCut != 1 || c2.Reported != 0 {
		t.Errorf("cut client 2 = %+v", c2)
	}
	if math.Abs(c2.Flakiness-flakyAlpha) > 1e-15 {
		t.Errorf("cut flakiness = %v, want %v", c2.Flakiness, flakyAlpha)
	}
	if st.Clients[3].Unavailable != 1 {
		t.Errorf("client 3 = %+v", st.Clients[3])
	}
}

func TestLatencyPrefersWireStats(t *testing.T) {
	r := NewRegistry(1, Options{})
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0}, Reports: []ClientReport{
		{ClientID: 0, NumSamples: 1, VirtualSec: 2.0, Stats: &ClientStats{TrainWallSec: 5.0, Samples: 1}},
	}})
	if got := r.State().Clients[0].LatencyEWMA; got != 5.0 {
		t.Errorf("EWMA = %v, want the wire-reported 5.0", got)
	}
}

func TestEWMAAndFlakinessSequences(t *testing.T) {
	r := NewRegistry(1, Options{})
	// Clean report at latency 1, then a cut, then a clean report at 3.
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0},
		Reports: []ClientReport{{ClientID: 0, NumSamples: 1, VirtualSec: 1}}})
	r.ObserveRound(RoundObservation{Round: 1, Selected: []int{0}, Cut: []int{0}})
	r.ObserveRound(RoundObservation{Round: 2, Selected: []int{0},
		Reports: []ClientReport{{ClientID: 0, NumSamples: 1, VirtualSec: 3}}})
	c := r.State().Clients[0]
	wantEWMA := latencyAlpha*3 + (1-latencyAlpha)*1.0
	if math.Abs(c.LatencyEWMA-wantEWMA) > 1e-15 {
		t.Errorf("EWMA = %v, want %v", c.LatencyEWMA, wantEWMA)
	}
	wantFlaky := (1 - flakyAlpha) * flakyAlpha // 1-outcome then 0-outcome
	if math.Abs(c.Flakiness-wantFlaky) > 1e-15 {
		t.Errorf("flakiness = %v, want %v", c.Flakiness, wantFlaky)
	}
	if c.Selected != 3 || c.Reported != 2 || c.StragglerCut != 1 || c.LastSeen != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestJainFairness(t *testing.T) {
	r := NewRegistry(4, Options{})
	if got := r.State().Fairness; got != 0 {
		t.Errorf("fairness before any selection = %v, want 0", got)
	}
	// One client hogging every selection: J = 1/n.
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0}})
	r.ObserveRound(RoundObservation{Round: 1, Selected: []int{0}})
	if got := r.State().Fairness; math.Abs(got-0.25) > 1e-15 {
		t.Errorf("concentrated fairness = %v, want 0.25", got)
	}
	// Even out: J = 1.
	r.ObserveRound(RoundObservation{Round: 2, Selected: []int{1, 2, 3}})
	r.ObserveRound(RoundObservation{Round: 3, Selected: []int{1, 2, 3}})
	if got := r.State().Fairness; math.Abs(got-1) > 1e-15 {
		t.Errorf("even fairness = %v, want 1", got)
	}
}

// staticSource is a canned ClusterSource.
type staticSource struct{ t ClusterTargets }

func (s staticSource) FleetClusterState() ClusterTargets { return s.t }

func TestClusterView(t *testing.T) {
	src := staticSource{ClusterTargets{
		Members: [][]int{{0, 1}, {2, 3}},
		Theta:   []float64{0.75, 0.25},
		Drift:   []float64{0.1, 0.2},
	}}
	r := NewRegistry(4, Options{Source: src})
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0, 1, 2}})
	st := r.State()
	if len(st.Clusters) != 2 {
		t.Fatalf("clusters = %+v", st.Clusters)
	}
	c0, c1 := st.Clusters[0], st.Clusters[1]
	if math.Abs(c0.Share-2.0/3.0) > 1e-15 || math.Abs(c1.Share-1.0/3.0) > 1e-15 {
		t.Errorf("shares = %v, %v", c0.Share, c1.Share)
	}
	if c0.TargetShare != 0.75 || c1.Drift != 0.2 {
		t.Errorf("targets/drift = %+v", st.Clusters)
	}
	if !reflect.DeepEqual(c0.Members, []int{0, 1}) {
		t.Errorf("members = %v", c0.Members)
	}
}

// versionedSource is a ClusterSource whose membership the test swaps,
// bumping Version as the contract requires.
type versionedSource struct{ t ClusterTargets }

func (s *versionedSource) FleetClusterState() ClusterTargets { return s.t }

func (s *versionedSource) set(members ...[]int) {
	n := len(members)
	s.t = ClusterTargets{Members: members, Version: s.t.Version + 1,
		Theta: make([]float64, n), Drift: make([]float64, n)}
}

// TestClusterShareFollowsVersion: the per-cluster selection counts the
// registry maintains from each round's Selected read bit-equal to a
// walk over the members — while the membership stands, after it changes
// under a new Version (emptied cluster and a client outside every
// cluster included), and in a registry restored mid-run.
func TestClusterShareFollowsVersion(t *testing.T) {
	check := func(r *Registry, src *versionedSource, when string) {
		t.Helper()
		st := r.State()
		if len(st.Clusters) != len(src.t.Members) {
			t.Fatalf("%s: %d clusters, source has %d", when, len(st.Clusters), len(src.t.Members))
		}
		for i, ch := range st.Clusters {
			sel := 0
			for _, id := range src.t.Members[i] {
				sel += st.Clients[id].Selected
			}
			want := 0.0
			if st.TotalSelected > 0 {
				want = float64(sel) / float64(st.TotalSelected)
			}
			if math.Float64bits(ch.Share) != math.Float64bits(want) {
				t.Errorf("%s: cluster %d share %v, member walk %v", when, i, ch.Share, want)
			}
		}
	}
	src := &versionedSource{}
	src.set([]int{0, 1}, []int{2, 3, 4}) // client 5 belongs to no cluster
	r := NewRegistry(6, Options{Source: src})
	for round := 0; round < 7; round++ {
		r.ObserveRound(RoundObservation{Round: round, Selected: []int{round % 6, (round + 2) % 6, 5}})
		check(r, src, "standing membership")
	}
	src.set([]int{0, 4, 5}, nil, []int{1, 2, 3})
	for round := 7; round < 12; round++ {
		r.ObserveRound(RoundObservation{Round: round, Selected: []int{round % 6, (round + 1) % 6}})
		check(r, src, "after a membership change")
	}

	snap, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewRegistry(6, Options{Source: src})
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for round := 12; round < 16; round++ {
		obs := RoundObservation{Round: round, Selected: []int{round % 6, (round + 3) % 6}}
		r.ObserveRound(obs)
		restored.ObserveRound(obs)
		check(restored, src, "restored")
	}
	if !reflect.DeepEqual(restored.State(), r.State()) {
		t.Error("restored registry diverged from the one it was taken from")
	}
}

func TestFleetHealthEvents(t *testing.T) {
	var sink telemetry.MemorySink
	src := staticSource{ClusterTargets{
		Members: [][]int{{0, 1}},
		Theta:   []float64{1},
		Drift:   []float64{0.3},
	}}
	r := NewRegistry(2, Options{Tracer: &sink, Source: src})
	r.ObserveRound(RoundObservation{Round: 5, Selected: []int{0}, Clock: 7.5})
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	fleetEv, clusterEv := evs[0], evs[1]
	if fleetEv.Kind != telemetry.KindFleetHealth || fleetEv.Cluster != -1 ||
		fleetEv.Round != 5 || fleetEv.Clock != 7.5 || fleetEv.Fairness != 0.5 {
		t.Errorf("fleet event = %+v", fleetEv)
	}
	if clusterEv.Cluster != 0 || clusterEv.Share != 1 || clusterEv.Theta != 1 || clusterEv.Drift != 0.3 {
		t.Errorf("cluster event = %+v", clusterEv)
	}
}

func TestFleetGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := staticSource{ClusterTargets{
		Members: [][]int{{0}},
		Theta:   []float64{1},
		Drift:   []float64{0.25},
	}}
	r := NewRegistry(2, Options{Metrics: reg, Source: src})
	r.ObserveRound(RoundObservation{Round: 0, Selected: []int{0}})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"haccs_fleet_fairness_jain 0.5",
		`haccs_fleet_cluster_share{cluster="0"} 1`,
		`haccs_fleet_cluster_target_share{cluster="0"} 1`,
		`haccs_fleet_cluster_drift{cluster="0"} 0.25`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// feed replays a fixed deterministic round history into a registry.
func feed(r *Registry, from, to int) {
	for round := from; round < to; round++ {
		obs := RoundObservation{
			Round:    round,
			Selected: []int{round % 3, (round + 1) % 3},
			Reports: []ClientReport{
				{ClientID: round % 3, Loss: 1.0 / float64(round+1), NumSamples: 5, VirtualSec: float64(round%7) + 0.5},
			},
			Clock: float64(round + 1),
		}
		if round%4 == 0 {
			obs.Cut = []int{(round + 1) % 3}
		} else {
			obs.Reports = append(obs.Reports, ClientReport{
				ClientID: (round + 1) % 3, NumSamples: 3, VirtualSec: float64(round%5) + 1.5,
			})
		}
		r.ObserveRound(obs)
	}
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	ref := NewRegistry(3, Options{})
	feed(ref, 0, 20)

	// Second registry: same history up to round 8, snapshot, restore
	// into a third, continue both to 20.
	a := NewRegistry(3, Options{})
	feed(a, 0, 8)
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := NewRegistry(3, Options{})
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	feed(b, 8, 20)

	want, err := ref.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("restored registry diverged from uninterrupted run")
	}
	if !reflect.DeepEqual(ref.State(), b.State()) {
		t.Error("State() snapshots differ")
	}
}

func TestRestoreRejectsRosterMismatch(t *testing.T) {
	a := NewRegistry(3, Options{})
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := NewRegistry(4, Options{})
	if err := b.RestoreState(snap); err == nil {
		t.Error("restore across roster sizes did not fail")
	}
}

func TestConcurrentStateAndObserve(t *testing.T) {
	r := NewRegistry(8, Options{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feed(r, 0, 200)
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			_ = r.State()
			_, _ = r.SnapshotState()
		}
	}
}

func TestValidStats(t *testing.T) {
	cases := []struct {
		name string
		s    *ClientStats
		want bool
	}{
		{"nil", nil, true},
		{"ok", &ClientStats{TrainWallSec: 1, Samples: 10, Loss: 0.5, Epochs: 1}, true},
		{"zero wall", &ClientStats{Samples: 1}, true},
		{"nan wall", &ClientStats{TrainWallSec: math.NaN(), Samples: 1}, false},
		{"neg wall", &ClientStats{TrainWallSec: -1, Samples: 1}, false},
		{"inf wall", &ClientStats{TrainWallSec: math.Inf(1), Samples: 1}, false},
		{"zero samples", &ClientStats{TrainWallSec: 1}, false},
		{"inf loss", &ClientStats{TrainWallSec: 1, Samples: 1, Loss: math.Inf(-1)}, false},
		{"neg epochs", &ClientStats{TrainWallSec: 1, Samples: 1, Epochs: -1}, false},
	}
	for _, c := range cases {
		if got := ValidStats(c.s); got != c.want {
			t.Errorf("%s: ValidStats = %v, want %v", c.name, got, c.want)
		}
	}
}
