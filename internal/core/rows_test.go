package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"haccs/internal/sketch"
	"haccs/internal/stats"
)

// checkRows asserts the sketch state's kept encodings: row id equals
// encodeInto(summaries[id]) bit for bit, for every client.
func checkRows(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	sk := s.sk
	if len(sk.rows) != len(s.summaries)*sk.enc.width {
		t.Fatalf("%s: %d encoded floats for %d clients of width %d", when, len(sk.rows), len(s.summaries), sk.enc.width)
	}
	want := make([]float64, sk.enc.width)
	for id, sum := range s.summaries {
		sk.enc.encodeInto(want, sum)
		for j, v := range sk.row(id) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("%s: client %d row[%d] = %v, encodeInto gives %v", when, id, j, v, want[j])
			}
		}
	}
}

// TestEncodedRowsMatchSummaries drives seeded batches — re-reports that
// stay, clients that move, a group that migrates and trips a drift
// re-cluster, malformed entries that must leave a row alone — and a
// snapshot → fresh scheduler → RestoreState in the middle, for both
// summary kinds, and checks every encoded row against a fresh encode
// after Init and after every step.
func TestEncodedRowsMatchSummaries(t *testing.T) {
	const n, groups = 48, 4
	for _, kind := range []SummaryKind{PY, PXY} {
		roster, sums, infos := newSynthRoster(kind, n, groups, 51)
		cfg := Config{Kind: kind, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Seed: 7}}
		s := NewScheduler(cfg, sums)
		s.Init(infos, stats.NewRNG(52))
		checkRows(t, s, fmt.Sprintf("%v after Init", kind))

		ops := stats.NewRNG(53)
		nextGroup := groups
		var moved, reclustered, rejected int
		for op := 0; op < 24; op++ {
			when := fmt.Sprintf("%v op %d", kind, op)
			batch := map[int]Summary{}
			switch op % 4 {
			case 0: // re-reports that stay
				for i := 0; i < 6; i++ {
					id := ops.Intn(n)
					batch[id] = roster.draw(roster.groupOf[id])
				}
			case 1: // a few clients move to another standing group
				for i := 0; i < 3; i++ {
					id := ops.Intn(n)
					roster.groupOf[id] = roster.groupOf[ops.Intn(n)]
					batch[id] = roster.draw(roster.groupOf[id])
				}
			case 2: // a whole group migrates to a mix nobody holds
				from := roster.groupOf[ops.Intn(n)]
				for id, g := range roster.groupOf {
					if g == from {
						roster.groupOf[id] = nextGroup
						batch[id] = roster.draw(nextGroup)
					}
				}
				nextGroup++
			case 3: // a malformed entry beside a good one
				good, bad := ops.Intn(n), ops.Intn(n)
				batch[good] = roster.draw(roster.groupOf[good])
				if bad != good {
					m := roster.draw(roster.groupOf[bad])
					if kind == PY {
						m.Label.Counts[len(m.Label.Counts)-1] = math.Inf(-1)
					} else {
						m.Feature = m.Feature[:len(m.Feature)-1]
					}
					batch[bad] = m
					rejected++
				}
			}
			labels, before := s.ClusterLabels(), s.sk.reclusters
			s.UpdateSummaries(batch)
			checkRows(t, s, when)
			if s.sk.reclusters != before {
				reclustered++
			}
			for id, l := range s.labels {
				if l != labels[id] {
					moved++
				}
			}
			if op == 12 {
				s = restoreInto(t, s, cfg, 52)
				checkRows(t, s, when+" restored")
			}
		}
		if moved == 0 || reclustered == 0 || rejected == 0 {
			t.Errorf("%v: the batches moved %d clients, re-clustered %d times and rejected %d entries; want each above zero",
				kind, moved, reclustered, rejected)
		}
	}
}

// TestDriftReclusterMatchesFreshEncode: the drift re-cluster routes the
// kept rows instead of re-encoding the roster, and that must change
// nothing. A twin scheduler with drift re-clustering off takes the same
// batches; whenever the scheduler under test re-clusters, the twin's
// index is rebuilt with the encode-every-client loop the kept rows
// replaced, then the twin re-clusters by re-encoding (the Init path).
// Representatives, assignments, member counts, labels and running mass
// must equal the re-clustered scheduler's by bits.
func TestDriftReclusterMatchesFreshEncode(t *testing.T) {
	const n, groups = 96, 4
	for _, kind := range []SummaryKind{PY, PXY} {
		roster, sums, infos := newSynthRoster(kind, n, groups, 61)
		cfg := Config{Kind: kind, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Seed: 9}}
		s := NewScheduler(cfg, append([]Summary(nil), sums...))
		s.Init(infos, stats.NewRNG(62))
		twinCfg := cfg
		twinCfg.Sketch.DriftThreshold = -1
		twin := NewScheduler(twinCfg, append([]Summary(nil), sums...))
		twin.Init(infos, stats.NewRNG(62))

		ops := stats.NewRNG(63)
		nextGroup, checked := groups, 0
		for op := 0; op < 30; op++ {
			when := fmt.Sprintf("%v op %d", kind, op)
			batch := map[int]Summary{}
			for i := 0; i < 8; i++ {
				id := ops.Intn(n)
				batch[id] = roster.draw(roster.groupOf[id])
			}
			if op%3 == 2 {
				from := roster.groupOf[ops.Intn(n)]
				for id, g := range roster.groupOf {
					if g == from {
						roster.groupOf[id] = nextGroup
						batch[id] = roster.draw(nextGroup)
					}
				}
				nextGroup++
			}
			before := s.sk.reclusters
			s.UpdateSummaries(batch)
			twin.UpdateSummaries(batch)
			if s.sk.reclusters == before {
				continue
			}

			// The oracle: every client encoded afresh, fed in ascending ID
			// order with the old index's hints.
			sk := twin.sk
			old := sk.index
			fresh := sketch.NewIndex(n, sk.enc.width, sk.attach, sk.enc.metric())
			scratch := make([]float64, sk.enc.width)
			landed := make([]int, old.Len())
			for r := range landed {
				landed[r] = -1
			}
			for id := 0; id < n; id++ {
				sk.enc.encodeInto(scratch, twin.summaries[id])
				from, hint := old.Assignment(id), -1
				if from >= 0 {
					hint = landed[from]
				}
				rep, _ := fresh.ObserveFrom(id, scratch, hint)
				if from >= 0 {
					landed[from] = rep
				}
			}
			sameIndex(t, when+" fresh encode", s.sk.index, fresh)

			twin.reclusterSketch(false)
			sameIndex(t, when+" re-encoded re-cluster", s.sk.index, twin.sk.index)
			if !slices.Equal(s.labels, twin.labels) || !slices.Equal(s.sk.repLabels, twin.sk.repLabels) || s.sk.nextLabel != twin.sk.nextLabel {
				t.Fatalf("%s: labels differ from the re-encoded re-cluster's", when)
			}
			if len(s.mass) != len(twin.mass) {
				t.Fatalf("%s: %d mass rows, re-encoded re-cluster has %d", when, len(s.mass), len(twin.mass))
			}
			for i := range s.mass {
				if !slices.Equal(s.mass[i], twin.mass[i]) {
					t.Fatalf("%s: cluster %d running mass %v, re-encoded re-cluster %v", when, i, s.mass[i], twin.mass[i])
				}
			}
			checked++
		}
		if checked < 2 {
			t.Errorf("%v: %d drift re-clusters compared, want at least 2", kind, checked)
		}
	}
}

// sameIndex fails unless a and b hold the same representatives by bits,
// the same member counts and the same assignments.
func sameIndex(t *testing.T, when string, a, b *sketch.Index) {
	t.Helper()
	if a.Len() != b.Len() || a.NumClients() != b.NumClients() {
		t.Fatalf("%s: %d representatives over %d clients, want %d over %d", when, a.Len(), a.NumClients(), b.Len(), b.NumClients())
	}
	for r := 0; r < a.Len(); r++ {
		if a.Count(r) != b.Count(r) {
			t.Fatalf("%s: representative %d counts %d, want %d", when, r, a.Count(r), b.Count(r))
		}
		for j, v := range a.Rep(r) {
			if w := b.Rep(r)[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: representative %d[%d] = %v, want %v", when, r, j, v, w)
			}
		}
	}
	for c := 0; c < a.NumClients(); c++ {
		if a.Assignment(c) != b.Assignment(c) {
			t.Fatalf("%s: client %d on representative %d, want %d", when, c, a.Assignment(c), b.Assignment(c))
		}
	}
}
