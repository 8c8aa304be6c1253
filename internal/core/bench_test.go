package core

import (
	"testing"

	"haccs/internal/fleet"
	"haccs/internal/stats"
)

// BenchmarkSelectRound is the selector's sub-second probe, shaped like
// the benchmark's select_scale workload without its driver: 20 000
// clients in 20 label groups on the sketch backend; one iteration is a
// Select of k = 64, the loss feedback, one fleet Registry.ObserveRound
// and an UpdateSummaries of 200 re-reports that keep every client in its
// cluster. It runs under two availability regimes: "available", every
// client up every round (select_scale's), and "transient", a fresh 10 %
// dropout mask every round (the paper's §V-C regime, Fig 5's rate), so
// that no two consecutive rounds see the same mask. The masks are drawn
// before the timer starts. `make bench-guard` runs it once; run it with
// -benchmem before and after a selector change for a local number ahead
// of the 20 s benchmark.
func BenchmarkSelectRound(b *testing.B) {
	const n, groups, k, batch, rate = 20000, 20, 64, 200, 0.10
	gen := stats.NewRNG(3)
	transient := make([][]bool, 16)
	for i := range transient {
		transient[i] = make([]bool, n)
		for id := range transient[i] {
			transient[i][id] = gen.Float64() >= rate
		}
	}
	for _, regime := range []struct {
		name  string
		masks [][]bool
	}{
		{"available", [][]bool{allAvailable(n)}},
		{"transient", transient},
	} {
		b.Run(regime.name, func(b *testing.B) {
			roster, sums, infos := newSynthRoster(PY, n, groups, 1)
			s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Dim: 16}}, sums)
			s.Init(infos, stats.NewRNG(2))
			reg := fleet.NewRegistry(n, fleet.Options{Source: s})
			batches := make([]map[int]Summary, n/batch)
			for i := range batches {
				batches[i] = make(map[int]Summary, batch)
				for id := i * batch; id < (i+1)*batch; id++ {
					batches[i][id] = roster.draw(roster.groupOf[id])
				}
			}
			losses := make([]float64, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel := s.Select(i, regime.masks[i%len(regime.masks)], k)
				for j, id := range sel {
					losses[j] = 2.3 / (1 + float64(i)/1000) * (1 + float64(id%7)/10)
				}
				s.Update(i, sel, losses[:len(sel)])
				reg.ObserveRound(fleet.RoundObservation{Round: i, Selected: sel})
				s.UpdateSummaries(batches[i%len(batches)])
			}
		})
	}
}

// BenchmarkRecluster is the forced re-cluster alone, at select_scale's
// size: 20 000 clients on the sketch backend, Dim 32, in 16 label groups
// (one per majority label, so no two share a mix). One iteration is an
// UpdateSummaries in which group 0 moves wholesale to a near-uniform
// label mix no representative holds, or back on odd iterations, so the
// cluster it leaves empties, reads drift 1, and forces exactly one
// reclusterSketch. `make bench-guard` runs it once.
func BenchmarkRecluster(b *testing.B) {
	const n, groups = 20000, 16
	roster, sums, infos := newSynthRoster(PY, n, groups, 1)
	s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Dim: 32}}, sums)
	s.Init(infos, stats.NewRNG(2))
	away, home := map[int]Summary{}, map[int]Summary{}
	for id, g := range roster.groupOf {
		if g == 0 {
			h := stats.NewLabelHistogram(roster.bins)
			for l := range h.Counts {
				h.Counts[l] = 125 + roster.rng.Normal(0, 10)
			}
			away[id] = Summary{Kind: PY, Label: h}
			home[id] = roster.draw(0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := s.sk.reclusters
		if i%2 == 0 {
			s.UpdateSummaries(away)
		} else {
			s.UpdateSummaries(home)
		}
		if s.sk.reclusters != before+1 {
			b.Fatalf("iteration %d re-clustered %d times, want 1", i, s.sk.reclusters-before)
		}
	}
}

// BenchmarkSketchInit100k is the sketch backend's scaling probe past
// select_scale's 20 000 clients: one iteration is a full Init of a
// 100 000-client roster — every client routed through the
// representative index, then OPTICS over the K ≪ N representatives.
// Memory stays O(N·sketch + K²); the dense backend's N×N distance matrix
// would need about 40 GB here. `make bench-guard` runs it once.
func BenchmarkSketchInit100k(b *testing.B) {
	const n, groups = 100_000, 20
	_, sums, infos := newSynthRoster(PY, n, groups, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(Config{Kind: PY, Rho: 0.5, Backend: SketchBackend, Sketch: SketchOptions{Dim: 32}}, sums)
		s.Init(infos, stats.NewRNG(2))
		if s.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}
