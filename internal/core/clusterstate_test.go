package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"haccs/internal/cluster"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// labelCentroidOracle is the O(members · bins) float walk the running
// sums replaced, kept verbatim as the reference: for P(y) the
// normalized sum of the members' label histograms, for P(X|y) the
// normalized per-class mass vector; negative mass clamps at zero, a
// massless cluster yields uniform.
func labelCentroidOracle(s *Scheduler, members []int) []float64 {
	var acc []float64
	for _, id := range members {
		sum := s.summaries[id]
		switch sum.Kind {
		case PY:
			if acc == nil {
				acc = make([]float64, len(sum.Label.Counts))
			}
			for b, c := range sum.Label.Counts {
				acc[b] += math.Max(0, c)
			}
		case PXY:
			if acc == nil {
				acc = make([]float64, len(sum.Feature))
			}
			for cls, h := range sum.Feature {
				if h != nil {
					acc[cls] += math.Max(0, h.Total())
				}
			}
		}
	}
	total := 0.0
	for _, v := range acc {
		total += v
	}
	if total <= 0 {
		u := 1.0 / float64(len(acc))
		for i := range acc {
			acc[i] = u
		}
		return acc
	}
	for i := range acc {
		acc[i] /= total
	}
	return acc
}

// checkClusterState asserts everything clusterstate.go maintains equals
// its from-scratch value, exactly.
func checkClusterState(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	want := cluster.Members(s.labels)
	if !reflect.DeepEqual(s.clusters, want) {
		t.Fatalf("%s: clusters %v, cluster.Members(labels) gives %v", when, s.clusters, want)
	}
	if len(s.byLat) != len(s.clusters) || len(s.drift) != len(s.clusters) {
		t.Fatalf("%s: %d clusters, %d latency lists, %d cached drifts", when, len(s.clusters), len(s.byLat), len(s.drift))
	}
	for i, members := range s.clusters {
		byLat := append([]int(nil), members...)
		sort.Slice(byLat, func(a, b int) bool {
			la, lb := s.latency[byLat[a]], s.latency[byLat[b]]
			if la != lb {
				return la < lb
			}
			return byLat[a] < byLat[b]
		})
		if len(members) == 0 {
			byLat = nil
		}
		if !reflect.DeepEqual(s.byLat[i], byLat) {
			t.Fatalf("%s: cluster %d latency order %v, want %v", when, i, s.byLat[i], byLat)
		}
	}
	for i, row := range s.mass {
		scratch := make([]int64, s.bins)
		if i < len(s.clusters) {
			for _, id := range s.clusters[i] {
				sum := s.summaries[id]
				if sum.Kind == PY {
					for b, c := range sum.Label.Counts {
						scratch[b] += s.quantize(c)
					}
					continue
				}
				for cls, h := range sum.Feature {
					if h != nil {
						scratch[cls] += s.quantize(h.Total())
					}
				}
			}
		}
		if !reflect.DeepEqual(row, scratch) {
			t.Fatalf("%s: cluster %d running mass %v, from scratch %v", when, i, row, scratch)
		}
	}
	for i, d := range s.drift {
		if got := s.driftOf(i); math.Float64bits(got) != math.Float64bits(d) {
			t.Fatalf("%s: cluster %d cached drift %v, recomputed %v", when, i, d, got)
		}
		if len(s.clusters[i]) == 0 || i >= len(s.baseline) {
			continue
		}
		// The fixed-point centroid stays within rounding of the float walk.
		cur := make([]float64, s.bins)
		s.centroidInto(cur, i)
		for b, v := range labelCentroidOracle(s, s.clusters[i]) {
			if math.Abs(cur[b]-v) > 1e-7 {
				t.Fatalf("%s: cluster %d bin %d centroid %v, float walk %v", when, i, b, cur[b], v)
			}
		}
	}
	for i, f := range s.dirty {
		if f {
			t.Fatalf("%s: cluster %d left dirty", when, i)
		}
	}
}

// checkRegistry asserts the registry's integer bookkeeping reads
// bit-equal to the O(N) formulas it replaced: Jain's index from a walk
// over the roster, each cluster's share from a walk over its members.
func checkRegistry(t *testing.T, reg *fleet.Registry, s *Scheduler, when string) {
	t.Helper()
	st := reg.State()
	var sum, sumSq float64
	for _, c := range st.Clients {
		x := float64(c.Selected)
		sum += x
		sumSq += x * x
	}
	jain := 0.0
	if sumSq != 0 {
		jain = sum * sum / (float64(len(st.Clients)) * sumSq)
	}
	if math.Float64bits(st.Fairness) != math.Float64bits(jain) {
		t.Fatalf("%s: fairness %v, roster walk %v", when, st.Fairness, jain)
	}
	if len(st.Clusters) != len(s.clusters) {
		t.Fatalf("%s: registry sees %d clusters, scheduler has %d", when, len(st.Clusters), len(s.clusters))
	}
	for i, ch := range st.Clusters {
		if !reflect.DeepEqual(ch.Members, s.clusters[i]) {
			t.Fatalf("%s: registry cluster %d members %v, scheduler %v", when, i, ch.Members, s.clusters[i])
		}
		sel := 0
		for _, id := range ch.Members {
			sel += st.Clients[id].Selected
		}
		share := 0.0
		if st.TotalSelected > 0 {
			share = float64(sel) / float64(st.TotalSelected)
		}
		if math.Float64bits(ch.Share) != math.Float64bits(share) {
			t.Fatalf("%s: cluster %d share %v, member walk %v", when, i, ch.Share, share)
		}
		if math.Float64bits(ch.Drift) != math.Float64bits(s.drift[i]) {
			t.Fatalf("%s: cluster %d drift %v, scheduler caches %v", when, i, ch.Drift, s.drift[i])
		}
	}
}

// restoreInto snapshots s (and its sketch component) and restores the
// payloads into a fresh scheduler built over a copy of s's current
// summaries — what a resumed process does.
func restoreInto(t *testing.T, s *Scheduler, cfg Config, seed uint64) *Scheduler {
	t.Helper()
	blob, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewScheduler(cfg, append([]Summary(nil), s.summaries...))
	infos := make([]fl.ClientInfo, len(s.latency))
	for id, lat := range s.latency {
		infos[id] = fl.ClientInfo{ID: id, Latency: lat}
	}
	fresh.Init(infos, stats.NewRNG(seed))
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for i, c := range s.ExtraComponents() {
		b, err := c.S.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ExtraComponents()[i].S.RestoreState(b); err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

// TestIncrementalEqualsFromScratch drives seeded random op sequences —
// batches that keep clusters, move clients, found new representatives,
// empty a cluster and trip a re-cluster, malformed entries mixed in,
// and a snapshot → fresh scheduler → Init → RestoreState in the middle
// — on both backends and both summary kinds, and after every op checks
// the maintained state against its from-scratch value, exactly.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	type variant struct {
		name    string
		backend ClusterBackend
		kind    SummaryKind
		drift   float64
	}
	variants := []variant{
		{"dense-py", DenseBackend, PY, 0},
		{"dense-pxy", DenseBackend, PXY, 0},
		{"sketch-py", SketchBackend, PY, 0},
		{"sketch-pxy", SketchBackend, PXY, 0},
		// Drift re-clustering off: emptied clusters stay in the view.
		{"sketch-py-nodrift", SketchBackend, PY, -1},
		{"sketch-pxy-nodrift", SketchBackend, PXY, -1},
	}
	const n, groups, k = 48, 4, 6
	for _, v := range variants {
		for seed := uint64(1); seed <= 3; seed++ {
			roster, sums, infos := newSynthRoster(v.kind, n, groups, seed)
			reg := telemetry.NewRegistry()
			cfg := Config{Kind: v.kind, Rho: 0.5, Backend: v.backend, Metrics: reg,
				Sketch: SketchOptions{Seed: seed, DriftThreshold: v.drift}}
			s := NewScheduler(cfg, sums)
			s.Init(infos, stats.NewRNG(seed+10))
			fleetReg := fleet.NewRegistry(n, fleet.Options{Source: s})
			checkClusterState(t, s, v.name+" after Init")

			ops := stats.NewRNG(seed + 20)
			avail := allAvailable(n)
			nextGroup := groups
			var moved, born, emptied, reclustered, rejected int
			for op := 0; op < 40; op++ {
				when := fmt.Sprintf("%s seed %d op %d", v.name, seed, op)
				batch := map[int]Summary{}
				switch kind := ops.Intn(5); kind {
				case 0: // re-reports that keep every client where it is
					for i := 0; i < 8; i++ {
						id := ops.Intn(n)
						batch[id] = roster.draw(roster.groupOf[id])
					}
				case 1: // a few clients move to another standing group
					for i := 0; i < 3; i++ {
						id := ops.Intn(n)
						roster.groupOf[id] = roster.groupOf[ops.Intn(n)]
						batch[id] = roster.draw(roster.groupOf[id])
					}
				case 2: // a client founds a representative nobody has seen
					id := ops.Intn(n)
					roster.groupOf[id] = nextGroup
					nextGroup++
					batch[id] = roster.draw(roster.groupOf[id])
				case 3: // a whole group migrates: its cluster empties
					from := roster.groupOf[ops.Intn(n)]
					to := roster.groupOf[ops.Intn(n)]
					if ops.Intn(2) == 0 {
						to = nextGroup
						nextGroup++
					}
					for id, g := range roster.groupOf {
						if g == from {
							roster.groupOf[id] = to
							batch[id] = roster.draw(to)
						}
					}
				case 4: // malformed entries beside a good one
					good, bad := ops.Intn(n), (ops.Intn(n-1)+1+ops.Intn(n))%n
					batch[good] = roster.draw(roster.groupOf[good])
					if bad != good {
						m := roster.draw(roster.groupOf[bad])
						if v.kind == PY {
							m.Label.Counts[0] = math.NaN()
						} else {
							m.Feature = m.Feature[:len(m.Feature)-1]
						}
						batch[bad] = m
						rejected++
					}
				}
				before := len(s.clusters)
				labelsBefore := s.ClusterLabels()
				reclustersBefore := 0
				if s.sk != nil {
					reclustersBefore = s.sk.reclusters
				}
				s.UpdateSummaries(batch)
				checkClusterState(t, s, when)
				if s.sk != nil && s.sk.reclusters != reclustersBefore {
					reclustered++
				} else {
					for id, l := range s.labels {
						if l != labelsBefore[id] {
							moved++
						}
					}
					if len(s.clusters) > before {
						born++
					}
					for _, members := range s.clusters {
						if len(members) == 0 {
							emptied++
							break
						}
					}
				}

				sel := s.Select(op, avail, k)
				losses := make([]float64, len(sel))
				for i := range losses {
					losses[i] = ops.Uniform(0.1, 3)
				}
				s.Update(op, sel, losses)
				fleetReg.ObserveRound(fleet.RoundObservation{Round: op, Selected: sel})
				checkRegistry(t, fleetReg, s, when)

				if op == 20 {
					restored := restoreInto(t, s, cfg, seed+10)
					checkClusterState(t, restored, when+" restored")
					if !reflect.DeepEqual(restored.mass[:len(restored.clusters)], s.mass[:len(s.clusters)]) ||
						!reflect.DeepEqual(restored.drift, s.drift) || !reflect.DeepEqual(restored.clusters, s.clusters) {
						t.Fatalf("%s: restored scheduler diverges from the one it was taken from", when)
					}
					blob, err := fleetReg.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					s = restored
					fleetReg = fleet.NewRegistry(n, fleet.Options{Source: s})
					if err := fleetReg.RestoreState(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := reg.Counter("haccs_summaries_rejected_total", "").Value(); got != float64(rejected) {
				t.Errorf("%s seed %d: rejected counter %v, want %d", v.name, seed, got, rejected)
			}
			if v.backend == SketchBackend && seed == 1 {
				if moved == 0 || born == 0 {
					t.Errorf("%s: op sequence never moved a client (%d) or founded a cluster (%d)", v.name, moved, born)
				}
				if v.drift < 0 && emptied == 0 {
					t.Errorf("%s: op sequence never left an emptied cluster in the view", v.name)
				}
				if v.drift == 0 && reclustered == 0 {
					t.Errorf("%s: op sequence never tripped a re-cluster", v.name)
				}
			}
		}
	}
}

// TestCarriedMassEqualsFromScratch relabels a sketch-backend clustering
// by hand — old clusters 0 and 1 merge, old cluster 2 splits (its
// second, fourth, … members to a new label above a gap), old cluster 2's
// first member takes label 0, everything else keeps its label — and
// asserts the sums carried across the relabel equal the from-scratch
// sums exactly, for both summary kinds.
func TestCarriedMassEqualsFromScratch(t *testing.T) {
	for _, kind := range []SummaryKind{PY, PXY} {
		_, sums, infos := newSynthRoster(kind, 48, 4, 3)
		s := NewScheduler(Config{Kind: kind, Rho: 0.5, Backend: SketchBackend}, sums)
		s.Init(infos, stats.NewRNG(4))
		if len(s.clusters) < 4 || len(s.clusters[2]) < 2 {
			t.Fatalf("%v: fixture has clusters %v, want four with a splittable third", kind, s.clusters)
		}
		prev := s.ClusterLabels()
		labels := make([]int, len(prev))
		for id, l := range prev {
			switch l {
			case 0, 1:
				labels[id] = 1
			case 2:
				labels[id] = 0
			default:
				labels[id] = l
			}
		}
		for i, id := range s.clusters[2] {
			if i%2 == 1 {
				labels[id] = len(s.clusters) + 1
			}
		}
		s.mu.Lock()
		s.labels = labels
		s.rebuildLocked(prev)
		s.setBaselinesLocked(s.captureBaselines())
		s.mu.Unlock()
		checkClusterState(t, s, kind.String()+" carried")
		if len(s.clusters[len(s.clusters)-2]) != 0 {
			t.Fatalf("%v: the relabel was meant to leave a gap below the split-off cluster", kind)
		}
	}
}

// TestDenseReclusterRecomputesMass: the dense backend's UpdateSummaries
// overwrites summaries without touching the sums, so its re-cluster
// must recompute them even when no label moves.
func TestDenseReclusterRecomputesMass(t *testing.T) {
	for _, kind := range []SummaryKind{PY, PXY} {
		roster, sums, infos := newSynthRoster(kind, 24, 3, 5)
		s := NewScheduler(Config{Kind: kind, Rho: 0.5}, sums)
		s.Init(infos, stats.NewRNG(6))
		labels := s.ClusterLabels()
		batch := map[int]Summary{}
		for id := 0; id < 24; id += 2 {
			batch[id] = roster.draw(roster.groupOf[id])
		}
		s.UpdateSummaries(batch)
		if !reflect.DeepEqual(s.labels, labels) {
			t.Fatalf("%v: same-group re-reports moved labels %v -> %v", kind, labels, s.labels)
		}
		checkClusterState(t, s, kind.String()+" dense re-cluster")
	}
}

// TestCentroidExactOnIntegerCounts: with integer counts the fixed-point
// centroid is the float walk's, bit for bit — the case in which drift
// values did not move at all.
func TestCentroidExactOnIntegerCounts(t *testing.T) {
	for _, kind := range []SummaryKind{PY, PXY} {
		s, _ := sketchFixture(t, kind, SketchOptions{})
		cur := make([]float64, s.bins)
		for i, members := range s.clusters {
			s.centroidInto(cur, i)
			want := labelCentroidOracle(s, members)
			for b := range want {
				if math.Float64bits(cur[b]) != math.Float64bits(want[b]) {
					t.Errorf("%v cluster %d bin %d: %v from the sums, %v from the float walk", kind, i, b, cur[b], want[b])
				}
			}
		}
	}
}

// TestQuantizeRules pins the quantiser's three rules.
func TestQuantizeRules(t *testing.T) {
	s, _ := testFixture(t, PY)
	for _, c := range []float64{-3, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := s.quantize(c); got != 0 {
			t.Errorf("quantize(%v) = %d, want 0", c, got)
		}
	}
	if got := s.quantize(1.5); got != 3<<(massFracBits-1) {
		t.Errorf("quantize(1.5) = %d", got)
	}
	if got := s.quantize(1e300); got != s.massCap {
		t.Errorf("quantize(1e300) = %d, want the cap %d", got, s.massCap)
	}
	if total := float64(s.massCap) * float64(len(s.summaries)); total > math.MaxInt64/2 {
		t.Errorf("%d saturated entries sum to %v, past 2^62", len(s.summaries), total)
	}
}

// TestUpdateSummariesRejectsMalformed is satellite 1's table: a
// refreshed summary of the wrong shape, or with a non-finite count,
// neither panics nor lands — the client keeps its previous summary, the
// counter counts it, the sums do not move — on both backends.
func TestUpdateSummariesRejectsMalformed(t *testing.T) {
	hist := func(bins int) *stats.Histogram {
		h := stats.NewLabelHistogram(bins)
		for b := range h.Counts {
			h.Counts[b] = float64(b + 1)
		}
		return h
	}
	poisoned := func(bins int, v float64) *stats.Histogram {
		h := hist(bins)
		h.Counts[bins/2] = v
		return h
	}
	lastBin := func(bins int, v float64) *stats.Histogram {
		h := hist(bins)
		h.Counts[bins-1] = v
		return h
	}
	// A quiet NaN with a payload in its low mantissa bits, sign set.
	payloadNaN := math.Float64frombits(0xfff8_0000_dead_beef)
	features := func(classes, bins int) []*stats.Histogram {
		f := make([]*stats.Histogram, classes)
		for c := range f {
			if c%2 == 0 {
				f[c] = hist(bins)
			}
		}
		return f
	}
	for _, backend := range []ClusterBackend{DenseBackend, SketchBackend} {
		for _, kind := range []SummaryKind{PY, PXY} {
			reg := telemetry.NewRegistry()
			_, sums, infos := newSynthRoster(kind, 24, 3, 5)
			s := NewScheduler(Config{Kind: kind, Rho: 0.5, Backend: backend, Metrics: reg}, sums)
			s.Init(infos, stats.NewRNG(6))

			var bad []Summary
			if kind == PY {
				bad = []Summary{
					{Kind: PY, Label: hist(64)}, // the wire case: 64 bins against a 16-bin roster
					{Kind: PY, Label: hist(3)},
					{Kind: PY, Label: poisoned(16, math.NaN())},
					{Kind: PY, Label: poisoned(16, math.Inf(1))},
					{Kind: PY, Label: poisoned(16, payloadNaN)},
					{Kind: PY, Label: lastBin(16, math.Inf(-1))},
					{Kind: PY},
				}
			} else {
				nanClass := features(16, 8)
				nanClass[2] = poisoned(8, math.NaN())
				payloadClass := features(16, 8)
				payloadClass[6] = poisoned(8, payloadNaN)
				negInfClass := features(16, 8)
				negInfClass[14] = lastBin(8, math.Inf(-1))
				wideClass := features(16, 8)
				wideClass[4] = hist(32)
				bad = []Summary{
					{Kind: PXY, Feature: features(10, 8)},
					{Kind: PXY, Feature: nanClass},
					{Kind: PXY, Feature: payloadClass},
					{Kind: PXY, Feature: negInfClass},
					{Kind: PXY, Feature: wideClass},
					{Kind: PXY},
				}
			}
			batch := map[int]Summary{}
			for i, m := range bad {
				batch[i] = m
			}
			keptSums := append([]Summary(nil), s.summaries...)
			keptLabels := s.ClusterLabels()
			keptMass := make([][]int64, len(s.mass))
			for i, row := range s.mass {
				keptMass[i] = append([]int64(nil), row...)
			}

			s.UpdateSummaries(batch)

			checkClusterState(t, s, "after rejects")
			if !reflect.DeepEqual(s.summaries, keptSums) {
				t.Errorf("%v %v: a malformed summary replaced a client's previous one", backend, kind)
			}
			if !reflect.DeepEqual(s.labels, keptLabels) || !reflect.DeepEqual(s.mass, keptMass) {
				t.Errorf("%v %v: malformed summaries moved labels or sums", backend, kind)
			}
			if got := reg.Counter("haccs_summaries_rejected_total", "").Value(); got != float64(len(bad)) {
				t.Errorf("%v %v: rejected counter %v, want %d", backend, kind, got, len(bad))
			}

			// Finite at its edges: the largest magnitudes, a subnormal and
			// a negative zero are counts like any other.
			good := map[int]Summary{}
			for i, v := range []float64{math.MaxFloat64, -math.MaxFloat64, 5e-324, math.Copysign(0, -1)} {
				if kind == PY {
					good[i] = Summary{Kind: PY, Label: poisoned(16, v)}
					continue
				}
				f := features(16, 8)
				f[2*i] = lastBin(8, v)
				good[i] = Summary{Kind: PXY, Feature: f}
			}
			s.UpdateSummaries(good)
			checkClusterState(t, s, "after edge values")
			for id, sum := range good {
				if !reflect.DeepEqual(s.summaries[id], sum) {
					t.Errorf("%v %v: the finite edge summary for client %d was not accepted", backend, kind, id)
				}
			}
			if got := reg.Counter("haccs_summaries_rejected_total", "").Value(); got != float64(len(bad)) {
				t.Errorf("%v %v: rejected counter %v after finite edge values, want %d", backend, kind, got, len(bad))
			}
		}
	}
}

// TestAbandonedClusterReadsDriftOne is satellite 2: with drift
// re-clustering off, a cluster whose population migrated away reads
// drift 1 on the fleet gauge — the value the re-cluster trigger sees —
// and goes back to a measured drift when clients return.
func TestAbandonedClusterReadsDriftOne(t *testing.T) {
	roster, sums, infos := newSynthRoster(PY, 24, 3, 9)
	reg := telemetry.NewRegistry()
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend,
		Sketch: SketchOptions{DriftThreshold: -1}}, sums)
	s.Init(infos, stats.NewRNG(10))
	fleetReg := fleet.NewRegistry(24, fleet.Options{Source: s, Metrics: reg})

	// Group 0's cluster: everyone in it moves to group 1's distribution.
	abandoned := s.labels[0]
	batch := map[int]Summary{}
	for id, g := range roster.groupOf {
		if g == 0 {
			batch[id] = roster.draw(1)
		}
	}
	s.UpdateSummaries(batch)
	if len(s.clusters[abandoned]) != 0 {
		t.Fatalf("cluster %d still has members %v", abandoned, s.clusters[abandoned])
	}
	if got := s.FleetClusterState().Drift[abandoned]; got != 1 {
		t.Errorf("abandoned cluster reports drift %v to the fleet, want 1", got)
	}
	fleetReg.ObserveRound(fleet.RoundObservation{Round: 0, Selected: s.Select(0, allAvailable(24), 4)})
	gauge := reg.GaugeVec("haccs_fleet_cluster_drift", "", "cluster").With(strconv.Itoa(abandoned))
	if got := gauge.Value(); got != 1 {
		t.Errorf("haccs_fleet_cluster_drift{cluster=%d} = %v, want 1", abandoned, got)
	}

	// One client comes back: the cluster's drift is measured again.
	s.UpdateSummaries(map[int]Summary{0: roster.draw(0)})
	if s.labels[0] != abandoned {
		t.Fatalf("client 0 returned to cluster %d, want %d", s.labels[0], abandoned)
	}
	if got := s.FleetClusterState().Drift[abandoned]; got >= 1 || got != s.driftOf(abandoned) {
		t.Errorf("repopulated cluster reports drift %v", got)
	}
}

// TestTrailingEmptiedClusterLeavesAndReentersView walks the one case in
// which the view's length moves without a re-clustering: like
// cluster.Members, the view ends at the highest label that still has
// members, so the newest cluster drops out when its only member goes
// home, and comes back — empty, reading drift 1 against the baseline it
// was born with — when a later label is born above it.
func TestTrailingEmptiedClusterLeavesAndReentersView(t *testing.T) {
	roster, sums, infos := newSynthRoster(PY, 24, 3, 13)
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend,
		Sketch: SketchOptions{DriftThreshold: -1}}, sums)
	s.Init(infos, stats.NewRNG(14))
	n := len(s.clusters)

	s.UpdateSummaries(map[int]Summary{0: roster.draw(8)}) // client 0 founds cluster n
	checkClusterState(t, s, "born")
	if len(s.clusters) != n+1 || s.labels[0] != n {
		t.Fatalf("client 0 in cluster %d of %d, want a new cluster %d", s.labels[0], len(s.clusters), n)
	}
	s.UpdateSummaries(map[int]Summary{0: roster.draw(0)}) // and goes home
	checkClusterState(t, s, "trimmed")
	if len(s.clusters) != n || len(s.FleetClusterState().Drift) != n {
		t.Fatalf("view has %d clusters after its newest emptied, want %d", len(s.clusters), n)
	}
	s.UpdateSummaries(map[int]Summary{1: roster.draw(12)}) // client 1 founds cluster n+1
	checkClusterState(t, s, "re-entered")
	if len(s.clusters) != n+2 || len(s.clusters[n]) != 0 {
		t.Fatalf("view %v, want cluster %d back as an empty list under cluster %d", s.clusters, n, n+1)
	}
	if got := s.FleetClusterState().Drift; got[n] != 1 || got[n+1] != 0 {
		t.Errorf("drift %v: want 1 for the abandoned cluster %d and 0 for the newborn %d", got, n, n+1)
	}
}

// TestPublishedMemberListsAreImmutable holds the lists handed to the
// fleet registry, the trace and SelectionState's source across a client
// move and a full re-cluster, and asserts not one element changed.
func TestPublishedMemberListsAreImmutable(t *testing.T) {
	roster, sums, infos := newSynthRoster(PY, 24, 3, 11)
	sink := &telemetry.MemorySink{}
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend, Tracer: sink}, sums)
	s.Init(infos, stats.NewRNG(12))
	s.Select(0, allAvailable(24), 4)

	held := s.FleetClusterState()
	var traced [][]int
	for _, e := range sink.Filter(telemetry.KindClusterState) {
		traced = append(traced, e.Clients)
	}
	deepCopy := func(lists [][]int) [][]int {
		out := make([][]int, len(lists))
		for i, l := range lists {
			out[i] = append([]int(nil), l...)
		}
		return out
	}
	wantHeld, wantTraced := deepCopy(held.Members), deepCopy(traced)

	// A move: client 0 takes group 1's distribution.
	version := held.Version
	s.UpdateSummaries(map[int]Summary{0: roster.draw(1)})
	if moved := s.FleetClusterState(); moved.Version == version || reflect.DeepEqual(moved.Members, held.Members) {
		t.Fatalf("a client moved but version %d -> %d, members changed: %v", version, moved.Version,
			!reflect.DeepEqual(moved.Members, held.Members))
	}
	// A re-cluster: group 2 migrates wholesale to a new distribution.
	reclusters := s.sk.reclusters
	batch := map[int]Summary{}
	for id, g := range roster.groupOf {
		if g == 2 {
			batch[id] = roster.draw(7)
		}
	}
	s.UpdateSummaries(batch)
	if s.sk.reclusters == reclusters {
		t.Fatal("wholesale migration did not re-cluster")
	}
	// A same-cluster re-report changes no list, so no version.
	version = s.FleetClusterState().Version
	s.UpdateSummaries(map[int]Summary{1: roster.draw(roster.groupOf[1])})
	if got := s.FleetClusterState().Version; got != version {
		t.Errorf("same-cluster re-report bumped the version %d -> %d", version, got)
	}

	if !reflect.DeepEqual(deepCopy(held.Members), wantHeld) {
		t.Errorf("lists handed to the fleet registry were written after publication:\n%v\nwant %v", held.Members, wantHeld)
	}
	if !reflect.DeepEqual(deepCopy(traced), wantTraced) {
		t.Errorf("lists handed to the trace were written after publication")
	}
}

// TestSharedListsConcurrentReaders races the HTTP-side readers — which
// now share member lists with the round loop instead of copying them —
// against batches that move clients and re-cluster. Immutability is
// what makes the sharing safe; the race detector is the assertion.
func TestSharedListsConcurrentReaders(t *testing.T) {
	const n = 48
	roster, sums, infos := newSynthRoster(PY, n, 4, 17)
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend}, sums)
	s.Init(infos, stats.NewRNG(18))
	reg := fleet.NewRegistry(n, fleet.Options{Source: s})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				total := 0
				for _, ch := range reg.State().Clusters {
					for _, id := range ch.Members {
						total += id
					}
				}
				for _, cs := range s.SelectionState().Clusters {
					total -= len(cs.Members)
				}
				if total < -n {
					t.Error("reader saw more members than clients")
					return
				}
			}
		}()
	}
	avail := allAvailable(n)
	for round := 0; round < 60; round++ {
		reg.ObserveRound(fleet.RoundObservation{Round: round, Selected: s.Select(round, avail, 6)})
		batch := map[int]Summary{}
		for i := 0; i < 4; i++ {
			id := (round*5 + i*11) % n
			roster.groupOf[id] = (roster.groupOf[id] + round%3) % 6
			batch[id] = roster.draw(roster.groupOf[id])
		}
		s.UpdateSummaries(batch)
	}
	close(done)
	wg.Wait()
}

// TestSketchResumeAcrossSummaryUpdate: a sketch-backend run is
// snapshotted, keeps going — an UpdateSummaries lands after the
// snapshot — and is killed; the resumed process restores the snapshot
// into a scheduler built over the summaries of snapshot time and
// replays from there. Its scheduler, sketch and fleet snapshot bytes at
// the end must equal the uninterrupted run's: the running sums are not
// in the snapshot, so this is the test that recomputed equals
// maintained.
func TestSketchResumeAcrossSummaryUpdate(t *testing.T) {
	const n, k, snapAt, rounds = 60, 6, 6, 14
	for _, kind := range []SummaryKind{PY, PXY} {
		roster, sums, infos := newSynthRoster(kind, n, 5, 31)
		// Every batch is drawn up front so both runs apply the same ones.
		plan := stats.NewRNG(32)
		batches := make([]map[int]Summary, rounds)
		for r := range batches {
			batches[r] = map[int]Summary{}
			for i := 0; i < 6; i++ {
				id := plan.Intn(n)
				if r%4 == 3 {
					roster.groupOf[id] = plan.Intn(7) // some move, some found new groups
				}
				batches[r][id] = roster.draw(roster.groupOf[id])
			}
		}
		cfg := Config{Kind: kind, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Seed: 3}}
		avail := allAvailable(n)
		leg := func(s *Scheduler, reg *fleet.Registry, from, to int) {
			for r := from; r < to; r++ {
				sel := s.Select(r, avail, k)
				losses := make([]float64, len(sel))
				for i, id := range sel {
					losses[i] = 1 + float64((id*7+r)%13)/10
				}
				s.Update(r, sel, losses)
				reg.ObserveRound(fleet.RoundObservation{Round: r, Selected: sel, Clock: float64(r)})
				s.UpdateSummaries(batches[r])
			}
		}
		snapshot := func(s *Scheduler, reg *fleet.Registry) [][]byte {
			var out [][]byte
			for _, snap := range []interface{ SnapshotState() ([]byte, error) }{s, s.ExtraComponents()[0].S, reg} {
				b, err := snap.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
			return out
		}

		ref := NewScheduler(cfg, append([]Summary(nil), sums...))
		ref.Init(infos, stats.NewRNG(33))
		refReg := fleet.NewRegistry(n, fleet.Options{Source: ref})
		leg(ref, refReg, 0, rounds)
		want := snapshot(ref, refReg)

		run := NewScheduler(cfg, append([]Summary(nil), sums...))
		run.Init(infos, stats.NewRNG(33))
		runReg := fleet.NewRegistry(n, fleet.Options{Source: run})
		leg(run, runReg, 0, snapAt)
		atSnap := snapshot(run, runReg)
		sumsAtSnap := append([]Summary(nil), run.summaries...)
		leg(run, runReg, snapAt, snapAt+3) // updates land, then the process dies

		resumed := NewScheduler(cfg, sumsAtSnap)
		resumed.Init(infos, stats.NewRNG(99))
		resumedReg := fleet.NewRegistry(n, fleet.Options{Source: resumed})
		if err := resumed.RestoreState(atSnap[0]); err != nil {
			t.Fatal(err)
		}
		if err := resumed.ExtraComponents()[0].S.RestoreState(atSnap[1]); err != nil {
			t.Fatal(err)
		}
		if err := resumedReg.RestoreState(atSnap[2]); err != nil {
			t.Fatal(err)
		}
		leg(resumed, resumedReg, snapAt, rounds)
		checkClusterState(t, resumed, "resumed")
		for i, name := range []string{"scheduler", "sketch", "fleet"} {
			if got := snapshot(resumed, resumedReg)[i]; !bytes.Equal(got, want[i]) {
				t.Errorf("%v: resumed %s snapshot differs from the uninterrupted run's", kind, name)
			}
		}
	}
}

// TestRoundCostIndependentOfRosterSize is O(changed) without a clock: a
// steady-state UpdateSummaries of a fixed 64-client same-cluster batch
// plus the fleet registry's round observation allocates the same bytes
// at N = 2 000 and at N = 20 000.
func TestRoundCostIndependentOfRosterSize(t *testing.T) {
	allocated := func(n int) uint64 {
		roster, sums, infos := newSynthRoster(PY, n, 20, 41)
		s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Dim: 16}}, sums)
		s.Init(infos, stats.NewRNG(42))
		reg := fleet.NewRegistry(n, fleet.Options{Source: s})
		batch := map[int]Summary{}
		for id := 0; id < 64; id++ {
			batch[id] = roster.draw(roster.groupOf[id])
		}
		avail := allAvailable(n)
		round := func(r int) {
			reg.ObserveRound(fleet.RoundObservation{Round: r, Selected: s.Select(r, avail, 8)})
			s.UpdateSummaries(batch)
		}
		round(0) // first sight: the registry builds its cluster table
		version, reclusters := s.version, s.sk.reclusters
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 1; r <= 50; r++ {
			round(r)
		}
		runtime.ReadMemStats(&after)
		if s.version != version || s.sk.reclusters != reclusters {
			t.Fatalf("N=%d: the batch was meant to keep every client in its cluster", n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(2000), allocated(20000)
	diff := int64(large) - int64(small)
	if diff < 0 {
		diff = -diff
	}
	if diff > 4096 {
		t.Errorf("50 rounds allocate %d B at N=2000 and %d B at N=20000: the round still scales with the roster", small, large)
	}
}
