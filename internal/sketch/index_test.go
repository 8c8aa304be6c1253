package sketch

import (
	"bytes"
	"math"
	"testing"

	"haccs/internal/stats"
)

// groupedSketches builds nClients sketches drawn from nGroups well-
// separated base distributions with small per-client jitter, plus the
// ground-truth group of each client.
func groupedSketches(t *testing.T, nClients, nGroups int) ([][]float64, []int) {
	t.Helper()
	rng := stats.NewRNG(21)
	s := New(Config{Dim: 64, Seed: 5})
	const width = 32
	bases := make([][]float64, nGroups)
	for g := range bases {
		p := make([]float64, width)
		// Disjoint dominant coordinates keep groups far apart in
		// Hellinger distance.
		for i := range p {
			p[i] = 0.01
		}
		p[g%width] = 1.0
		bases[g] = p
	}
	sketches := make([][]float64, nClients)
	truth := make([]int, nClients)
	for c := 0; c < nClients; c++ {
		g := c % nGroups
		truth[c] = g
		p := make([]float64, width)
		total := 0.0
		for i := range p {
			p[i] = bases[g][i] * math.Exp(rng.Normal(0, 0.02))
			total += p[i]
		}
		for i := range p {
			p[i] = math.Sqrt(p[i] / total)
		}
		sketches[c] = s.Sketch(p)
	}
	return sketches, truth
}

// TestLeaderIndexGrouping: clients from G well-separated distributions
// must collapse onto close to G representatives, with every client's
// representative shared only by clients of its own group.
func TestLeaderIndexGrouping(t *testing.T) {
	const nClients, nGroups = 200, 5
	sketches, truth := groupedSketches(t, nClients, nGroups)
	idx := NewIndex(nClients, 64, DefaultAttachRadius, nil)
	for c, sk := range sketches {
		idx.Observe(c, sk)
	}
	if k := idx.Len(); k < nGroups || k > 3*nGroups {
		t.Fatalf("index built %d representatives for %d groups, want within [%d, %d]", k, nGroups, nGroups, 3*nGroups)
	}
	// Each representative must be pure: all its members from one group.
	repGroup := make(map[int]int)
	for c := 0; c < nClients; c++ {
		r := idx.Assignment(c)
		if r < 0 {
			t.Fatalf("client %d unassigned", c)
		}
		if g, seen := repGroup[r]; seen && g != truth[c] {
			t.Fatalf("representative %d mixes groups %d and %d", r, g, truth[c])
		} else if !seen {
			repGroup[r] = truth[c]
		}
	}
	// Counts must total the client population.
	total := 0
	for r := 0; r < idx.Len(); r++ {
		total += idx.Count(r)
	}
	if total != nClients {
		t.Fatalf("representative counts sum to %d, want %d", total, nClients)
	}
}

// TestObserveReassign: re-observing a client with a different sketch
// must move its assignment and keep counts consistent.
func TestObserveReassign(t *testing.T) {
	sketches, _ := groupedSketches(t, 10, 2)
	idx := NewIndex(10, 64, DefaultAttachRadius, nil)
	for c, sk := range sketches {
		idx.Observe(c, sk)
	}
	before := idx.Assignment(0)
	// Client 0 (group 0) now reports group-1 data (client 1's sketch).
	rep, created := idx.Observe(0, sketches[1])
	if created {
		t.Fatal("reassignment to an existing neighbourhood created a new representative")
	}
	if rep == before {
		t.Fatal("re-observation with different data did not move the assignment")
	}
	if rep != idx.Assignment(1) {
		t.Fatalf("client 0 moved to rep %d, want client 1's rep %d", rep, idx.Assignment(1))
	}
	total := 0
	for r := 0; r < idx.Len(); r++ {
		if idx.Count(r) < 0 {
			t.Fatalf("representative %d has negative count", r)
		}
		total += idx.Count(r)
	}
	if total != 10 {
		t.Fatalf("counts sum to %d after reassignment, want 10", total)
	}
}

// TestNearestZeroAlloc: the O(K·Dim) nearest-representative scan is the
// per-client steady-state cost and must not allocate, and neither may
// re-observing an indexed client (the churn path one summary update
// pays).
func TestNearestZeroAlloc(t *testing.T) {
	sketches, _ := groupedSketches(t, 100, 4)
	idx := NewIndex(100, 64, DefaultAttachRadius, nil)
	for c, sk := range sketches {
		idx.Observe(c, sk)
	}
	probe := sketches[0]
	if allocs := testing.AllocsPerRun(100, func() { idx.Nearest(probe, -1) }); allocs != 0 {
		t.Fatalf("Nearest allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { idx.Observe(0, probe) }); allocs != 0 {
		t.Fatalf("re-Observe of an indexed client allocated %v times per run, want 0", allocs)
	}
}

// TestIndexSnapshotRoundTrip: Snapshot→Restore must reproduce the index
// bit-for-bit, and a restored index must make identical decisions on
// subsequent observations.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	sketches, _ := groupedSketches(t, 50, 3)
	idx := NewIndex(50, 64, 0, nil)
	for c := 0; c < 40; c++ {
		idx.Observe(c, sketches[c])
	}
	blob, err := idx.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored := NewIndex(50, 64, 0, nil)
	if err := restored.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Len() != idx.Len() || restored.AttachRadius() != idx.AttachRadius() {
		t.Fatalf("restored index shape (%d reps, radius %v) != original (%d, %v)",
			restored.Len(), restored.AttachRadius(), idx.Len(), idx.AttachRadius())
	}
	for r := 0; r < idx.Len(); r++ {
		a, b := idx.Rep(r), restored.Rep(r)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("representative %d coordinate %d differs after restore", r, i)
			}
		}
	}
	// The remaining clients must be routed identically by both indexes.
	for c := 40; c < 50; c++ {
		r1, n1 := idx.Observe(c, sketches[c])
		r2, n2 := restored.Observe(c, sketches[c])
		if r1 != r2 || n1 != n2 {
			t.Fatalf("client %d diverged after restore: (%d,%v) vs (%d,%v)", c, r1, n1, r2, n2)
		}
	}
}

// TestRestoreRejectsMismatch: restoring across a changed sketch width or
// client count must fail loudly rather than corrupt geometry.
func TestRestoreRejectsMismatch(t *testing.T) {
	idx := NewIndex(10, 64, 0, nil)
	idx.Observe(0, make([]float64, 64))
	blob, err := idx.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := NewIndex(10, 32, 0, nil).Restore(blob); err == nil {
		t.Fatal("Restore accepted a snapshot with mismatched sketch width")
	}
	if err := NewIndex(11, 64, 0, nil).Restore(blob); err == nil {
		t.Fatal("Restore accepted a snapshot with mismatched client count")
	}
}

// restoreFixture is a valid snapshot state for a 6-client, width-4
// index: two representatives, five clients assigned, one unseen.
func restoreFixture() indexState {
	return indexState{
		Dim:    4,
		Attach: DefaultAttachRadius,
		Reps:   []float64{1, 0, 0, 0, 0, 0.6, 0.8, 0},
		Counts: []int{3, 2},
		Assign: []int{0, 1, 0, -1, 1, 0},
	}
}

// TestRestoreRejectsCorrupt is the table of payloads Restore accepted
// before and Observe then panicked on (or, for the radius, routed
// nonsense with): each is refused, and the refusing index keeps its
// state.
func TestRestoreRejectsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(st *indexState)
	}{
		{"assignment past K", func(st *indexState) { st.Assign[2] = 2 }},
		{"assignment below -1", func(st *indexState) { st.Assign[2] = -2 }},
		{"count above assignments", func(st *indexState) { st.Counts[0] = 4 }},
		{"count below assignments", func(st *indexState) { st.Counts[1] = 1 }},
		{"negative count", func(st *indexState) { st.Counts[0], st.Assign[0], st.Assign[2], st.Assign[5] = -1, -1, -1, -1 }},
		{"counts without representatives", func(st *indexState) { st.Reps, st.Counts = st.Reps[:4], st.Counts[:1] }},
		{"zero radius", func(st *indexState) { st.Attach = 0 }},
		{"NaN radius", func(st *indexState) { st.Attach = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := NewIndex(6, 4, 0, nil)
			x.Observe(3, []float64{0, 0, 0, 1})
			before, err := x.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st := restoreFixture()
			tc.edit(&st)
			if err := x.Restore(encodeState(t, st)); err == nil {
				t.Fatal("Restore accepted the payload")
			}
			if after, _ := x.Snapshot(); !bytes.Equal(after, before) {
				t.Fatal("a refused Restore changed the index")
			}
		})
	}
	x := NewIndex(6, 4, 0, nil)
	if err := x.Restore(encodeState(t, restoreFixture())); err != nil {
		t.Fatalf("the valid fixture was refused: %v", err)
	}
}

// FuzzIndexRestore feeds arbitrary bytes to Restore on a 6-client,
// width-4 index and checks that whatever it accepts routes every client
// without panicking, keeps the member counts equal to the assignments,
// and survives a Snapshot → Restore round trip byte for byte.
func FuzzIndexRestore(f *testing.F) {
	for _, seed := range restoreSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := NewIndex(6, 4, 0, nil)
		if err := x.Restore(data); err != nil {
			return
		}
		for c := 0; c < x.NumClients(); c++ {
			x.Observe(c, []float64{float64(c % 2), 0.5, float64(c) / 6, 0})
			x.Nearest(x.Rep(c%x.Len()), c%(x.Len()+2)-1)
		}
		counts := make([]int, x.Len())
		for c := 0; c < x.NumClients(); c++ {
			counts[x.Assignment(c)]++
		}
		for r, n := range counts {
			if x.Count(r) != n {
				t.Fatalf("representative %d counts %d, %d clients are assigned to it", r, x.Count(r), n)
			}
		}
		blob, err := x.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		y := NewIndex(6, 4, 0, nil)
		if err := y.Restore(blob); err != nil {
			t.Fatalf("an index's own snapshot was refused: %v", err)
		}
		if again, _ := y.Snapshot(); !bytes.Equal(again, blob) {
			t.Fatal("snapshot changed across a round trip")
		}
	})
}

// restoreSeeds are the hand-made starting points, also committed under
// testdata/fuzz/FuzzIndexRestore: the valid fixture, an index with no
// representatives, and two corruptions the table test names.
func restoreSeeds(t testing.TB) [][]byte {
	empty := indexState{Dim: 4, Attach: DefaultAttachRadius, Assign: []int{-1, -1, -1, -1, -1, -1}}
	pastK, miscounted := restoreFixture(), restoreFixture()
	pastK.Assign[2] = 2
	miscounted.Counts[1] = 1
	return [][]byte{
		encodeState(t, restoreFixture()),
		encodeState(t, empty),
		encodeState(t, pastK),
		encodeState(t, miscounted),
	}
}
