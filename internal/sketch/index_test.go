package sketch

import (
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
	if allocs := testing.AllocsPerRun(100, func() { idx.Nearest(probe) }); allocs != 0 {
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
