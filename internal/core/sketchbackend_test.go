package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"haccs/internal/checkpoint"
	"haccs/internal/cluster"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/stats"
)

// sketchFixture mirrors testFixture (12 clients, 4 majority-label
// groups) on the sketch backend.
func sketchFixture(t *testing.T, kind SummaryKind, opts SketchOptions) (*Scheduler, []fl.ClientInfo) {
	t.Helper()
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 8, Width: 8, Classes: 8, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 21)
	rng := stats.NewRNG(22)
	var sums []Summary
	var infos []fl.ClientInfo
	id := 0
	for major := 0; major < 4; major++ {
		for k := 0; k < 3; k++ {
			noise := []int{(major + 4) % 8, (major + 5) % 8, (major + 6) % 8}
			ld := dataset.MajorityNoise(major, 0.75, noise, dataset.DefaultMajorityFractions)
			d := gen.Generate(ld.Draw(300, rng), rng)
			sums = append(sums, Summarize(d, kind, 16))
			infos = append(infos, fl.ClientInfo{ID: id, Latency: float64(1 + id), NumSamples: 300})
			id++
		}
	}
	sched := NewScheduler(Config{Kind: kind, Rho: 0.5, Backend: SketchBackend, Sketch: opts}, sums)
	sched.Init(infos, stats.NewRNG(23))
	return sched, infos
}

// TestSketchBackendMatchesDenseGroups: on the well-separated fixture
// the sketch backend must recover the same grouping the dense backend
// does (ARI = 1 against the ground-truth majority groups).
func TestSketchBackendMatchesDenseGroups(t *testing.T) {
	truth := make([]int, 12)
	for i := range truth {
		truth[i] = i / 3
	}
	for _, kind := range []SummaryKind{PY, PXY} {
		s, _ := sketchFixture(t, kind, SketchOptions{})
		labels := s.ClusterLabels()
		if ari := cluster.AdjustedRand(labels, truth); ari < 1 {
			t.Errorf("%v: sketch clustering ARI %v vs ground truth (labels %v)", kind, ari, labels)
		}
	}
}

// TestSketchBackendNoDenseMatrix: the sketch path's representative
// count must stay near the number of distinct distributions, far below
// the client count — the structural guarantee that no N-sized pairwise
// work happens.
func TestSketchBackendRepresentativeCompression(t *testing.T) {
	s, _ := sketchFixture(t, PY, SketchOptions{})
	st := s.SelectionState()
	if st.Backend != "sketch" {
		t.Fatalf("backend %q, want sketch", st.Backend)
	}
	if st.Sketch == nil {
		t.Fatal("SelectionState has no sketch view on the sketch backend")
	}
	if k := st.Sketch.Representatives; k < 4 || k > 8 {
		t.Errorf("12 clients in 4 groups produced %d representatives, want 4..8", k)
	}
	if got := len(st.Sketch.Assignments); got != 12 {
		t.Errorf("assignment vector has %d entries, want 12", got)
	}
	total := 0
	for _, c := range st.Sketch.RepCounts {
		total += c
	}
	if total != 12 {
		t.Errorf("representative counts sum to %d, want 12", total)
	}
	if st.Sketch.Reclusters != 1 {
		t.Errorf("reclusters = %d after Init, want 1", st.Sketch.Reclusters)
	}
}

// TestSketchBackendIncrementalUpdate: a small summary update must route
// incrementally (no full recluster) while still moving the client to
// the cluster whose distribution it now matches.
func TestSketchBackendIncrementalUpdate(t *testing.T) {
	s, _ := sketchFixture(t, PY, SketchOptions{DriftThreshold: -1}) // drift reclustering off
	before := s.SelectionState().Sketch.Reclusters

	// Client 0 (group 0) now reports group-3-shaped data.
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 8, Width: 8, Classes: 8, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 99)
	rng := stats.NewRNG(98)
	ld := dataset.MajorityNoise(3, 0.75, []int{7, 0, 1}, dataset.DefaultMajorityFractions)
	d := gen.Generate(ld.Draw(300, rng), rng)
	s.UpdateSummaries(map[int]Summary{0: Summarize(d, PY, 16)})

	st := s.SelectionState()
	if st.Sketch.Reclusters != before {
		t.Errorf("incremental update triggered a full recluster (%d -> %d)", before, st.Sketch.Reclusters)
	}
	labels := s.ClusterLabels()
	if labels[0] != labels[9] {
		t.Errorf("client 0 now holds group-3 data but sits in cluster %d, group 3 is cluster %d (labels %v)",
			labels[0], labels[9], labels)
	}
	// Clients 1 and 2 still form the old group-0 cluster.
	if labels[1] != labels[2] || labels[1] == labels[0] {
		t.Errorf("group-0 remnant broken: labels %v", labels)
	}
}

// TestSketchBackendDriftRecluster: when updates shift enough of a
// cluster's distribution, the drift policy must force a full recluster.
func TestSketchBackendDriftRecluster(t *testing.T) {
	s, _ := sketchFixture(t, PY, SketchOptions{DriftThreshold: 0.05})
	before := s.SelectionState().Sketch.Reclusters

	// Move all three group-0 clients to a brand-new majority label, a
	// large centroid shift for their cluster.
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 8, Width: 8, Classes: 8, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 77)
	rng := stats.NewRNG(76)
	updates := map[int]Summary{}
	for id := 0; id < 3; id++ {
		ld := dataset.MajorityNoise(5, 0.75, []int{1, 2, 3}, dataset.DefaultMajorityFractions)
		d := gen.Generate(ld.Draw(300, rng), rng)
		updates[id] = Summarize(d, PY, 16)
	}
	s.UpdateSummaries(updates)

	if after := s.SelectionState().Sketch.Reclusters; after <= before {
		t.Errorf("large drift did not trigger a recluster (%d -> %d)", before, after)
	}
	// After the recluster the moved clients form their own cluster.
	labels := s.ClusterLabels()
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("moved clients split after recluster: %v", labels)
	}
}

// TestSketchBackendSelectSchedules: the sampled-cluster scheduling loop
// runs unchanged on sketch-backed clusters.
func TestSketchBackendSelectSchedules(t *testing.T) {
	s, _ := sketchFixture(t, PY, SketchOptions{})
	sel := s.Select(0, allAvailable(12), 4)
	if len(sel) != 4 {
		t.Fatalf("selected %d clients, want 4", len(sel))
	}
	seen := map[int]bool{}
	for _, id := range sel {
		if id < 0 || id >= 12 || seen[id] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[id] = true
	}
}

// TestSketchCheckpointRoundTrip: snapshot → restore into a freshly
// built scheduler must reproduce labels, representative geometry, and
// subsequent routing decisions exactly.
func TestSketchCheckpointRoundTrip(t *testing.T) {
	s1, _ := sketchFixture(t, PY, SketchOptions{})
	extra := s1.ExtraComponents()
	if len(extra) != 1 || extra[0].Name != "sketch" {
		t.Fatalf("ExtraComponents = %v, want one sketch component", extra)
	}
	stratBlob, err := s1.SnapshotState()
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	sketchBlob, err := extra[0].S.SnapshotState()
	if err != nil {
		t.Fatalf("sketch SnapshotState: %v", err)
	}

	s2, _ := sketchFixture(t, PY, SketchOptions{})
	if err := s2.RestoreState(stratBlob); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := s2.ExtraComponents()[0].S.RestoreState(sketchBlob); err != nil {
		t.Fatalf("sketch RestoreState: %v", err)
	}

	l1, l2 := s1.ClusterLabels(), s2.ClusterLabels()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("labels diverge after restore: %v vs %v", l1, l2)
		}
	}
	st1, st2 := s1.SelectionState().Sketch, s2.SelectionState().Sketch
	if st1.Representatives != st2.Representatives || st1.Reclusters != st2.Reclusters {
		t.Fatalf("sketch state diverges after restore: %+v vs %+v", st1, st2)
	}

	// Both schedulers must make identical decisions on the same update.
	spec := dataset.Spec{Name: "t", Channels: 1, Height: 8, Width: 8, Classes: 8, NoiseStd: 0.1, Blobs: 3}
	gen := dataset.NewGenerator(spec, 55)
	rng := stats.NewRNG(54)
	ld := dataset.MajorityNoise(2, 0.75, []int{6, 7, 0}, dataset.DefaultMajorityFractions)
	d := gen.Generate(ld.Draw(300, rng), rng)
	upd := Summarize(d, PY, 16)
	s1.UpdateSummaries(map[int]Summary{5: upd})
	s2.UpdateSummaries(map[int]Summary{5: upd})
	l1, l2 = s1.ClusterLabels(), s2.ClusterLabels()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("post-restore update diverges: %v vs %v", l1, l2)
		}
	}
}

// TestSketchRestoreRejectsCorrupt: a sketch component that would later
// panic observeLocked — a representative without a label, a negative
// label, a next label that is not above every label in use — or whose
// index Restore refuses is itself refused, and leaves the scheduler's
// sketch state as it was.
func TestSketchRestoreRejectsCorrupt(t *testing.T) {
	s, _ := sketchFixture(t, PY, SketchOptions{})
	comp := s.ExtraComponents()[0].S
	blob, err := comp.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	decode := func() sketchComponentState {
		var st sketchComponentState
		if err := checkpoint.DecodeGob("test", blob, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	maxLabel := slices.Max(decode().RepLabels)
	for _, tc := range []struct {
		name string
		edit func(st *sketchComponentState)
	}{
		{"a label short", func(st *sketchComponentState) { st.RepLabels = st.RepLabels[1:] }},
		{"a label over", func(st *sketchComponentState) { st.RepLabels = append(st.RepLabels, st.NextLabel) }},
		{"negative label", func(st *sketchComponentState) { st.RepLabels[0] = -1 }},
		{"next label in use", func(st *sketchComponentState) { st.NextLabel = maxLabel }},
		{"negative next label", func(st *sketchComponentState) { st.NextLabel = -1 }},
		{"index refused", func(st *sketchComponentState) { st.Index = st.Index[:len(st.Index)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := decode()
			tc.edit(&st)
			data, err := checkpoint.EncodeGob("test", st)
			if err != nil {
				t.Fatal(err)
			}
			if err := comp.RestoreState(data); err == nil {
				t.Fatal("RestoreState accepted the payload")
			}
			if after, _ := comp.SnapshotState(); !bytes.Equal(after, blob) {
				t.Fatal("a refused RestoreState changed the sketch state")
			}
		})
	}
	if err := comp.RestoreState(blob); err != nil {
		t.Fatalf("the scheduler's own snapshot was refused: %v", err)
	}
}

// TestReclusterPublishesOneClustering races /debug/selection's reader
// against forced re-clusters: every read must see one clustering — a
// label for each representative, and every listed member's
// representative labelled with the member's cluster — never the new
// index beside the old labels.
func TestReclusterPublishesOneClustering(t *testing.T) {
	const n, groups = 2000, 16
	roster, sums, infos := newSynthRoster(PY, n, groups, 21)
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend}, sums)
	s.Init(infos, stats.NewRNG(22))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := s.SelectionState()
			sk := st.Sketch
			if len(sk.RepLabels) != sk.Representatives {
				t.Errorf("read %d representatives with %d labels", sk.Representatives, len(sk.RepLabels))
				return
			}
			for _, cs := range st.Clusters {
				for _, m := range cs.Members {
					if l := sk.RepLabels[sk.Assignments[m]]; l != cs.ID {
						t.Errorf("client %d listed in cluster %d, its representative %d is labelled %d", m, cs.ID, sk.Assignments[m], l)
						return
					}
				}
			}
		}
	}()
	// Group g moves wholesale onto group g+1's mix: the cluster it leaves
	// empties and forces a re-cluster, every time.
	for g := 0; g < 13; g++ {
		reclusters := s.sk.reclusters
		batch := map[int]Summary{}
		for id, h := range roster.groupOf {
			if h == g {
				roster.groupOf[id] = g + 1
				batch[id] = roster.draw(g + 1)
			}
		}
		s.UpdateSummaries(batch)
		if s.sk.reclusters != reclusters+1 {
			t.Fatalf("move %d re-clustered %d times, want 1", g, s.sk.reclusters-reclusters)
		}
	}
	close(done)
	wg.Wait()
}

// TestDenseBackendHasNoSketchComponent: dense runs must not list the
// sketch component, keeping their snapshots readable by older builds.
func TestDenseBackendHasNoSketchComponent(t *testing.T) {
	s, _ := testFixture(t, PY)
	if extra := s.ExtraComponents(); extra != nil {
		t.Fatalf("dense backend lists extra components %v", extra)
	}
	if st := s.SelectionState(); st.Backend != "dense" || st.Sketch != nil {
		t.Fatalf("dense SelectionState reports backend %q, sketch %v", st.Backend, st.Sketch)
	}
}
