package sketch

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"haccs/internal/stats"
)

// labelMixSketches draws nClients amplitude vectors over dim labels in
// the shape of the benchmark's select_scale roster: client c belongs to
// group c % groups, whose mix puts 75 % of 2 000 samples on label g and
// 12/7/6 % on the next three, jittered at multinomial scale and clamped
// at zero. The labels fit the width, so a sketch is the amplitude itself.
func labelMixSketches(nClients, groups, dim int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, nClients)
	counts := make([]float64, dim)
	for c := range out {
		g := c % groups
		for i := range counts {
			counts[i] = 0
		}
		total := 0.0
		for i, f := range []float64{0.75, 0.12, 0.07, 0.06} {
			m := f * 2000
			v := math.Max(0, m+rng.Normal(0, math.Sqrt(m*(1-f))))
			counts[(g+i)%dim] = v
			total += v
		}
		out[c] = make([]float64, dim)
		for i, v := range counts {
			out[c][i] = math.Sqrt(v / total)
		}
	}
	return out
}

// indexOver builds an index whose representatives are exactly reps —
// duplicates included, which Observe would never found — through
// Restore, so the derived search state is built the way a resumed run
// builds it.
func indexOver(t testing.TB, dim int, reps [][]float64) *Index {
	t.Helper()
	st := indexState{Dim: dim, Attach: DefaultAttachRadius, Counts: make([]int, len(reps)), Assign: []int{}}
	for _, r := range reps {
		st.Reps = append(st.Reps, r...)
	}
	x := NewIndex(0, dim, 0, nil)
	if err := x.Restore(encodeState(t, st)); err != nil {
		t.Fatal(err)
	}
	return x
}

func encodeState(t testing.TB, st indexState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// linearNearest is the plain scan the hinted search replaced, kept as
// the oracle: every representative's full DistanceSq, first minimum
// wins.
func linearNearest(x *Index, sk []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for r := 0; r < x.Len(); r++ {
		if d := DistanceSq(x.Rep(r), sk); d < bestSq {
			best, bestSq = r, d
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, math.Min(1, math.Sqrt(bestSq)/math.Sqrt2)
}

// TestHintedNearestMatchesLinearScan: for every hint — none, out of
// range, and each representative — the hinted search returns the plain
// scan's representative and the same distance bits. Small-integer
// coordinates make equal partial sums and exact ties common (the cases
// an exit on >= or a lost tie rule would get wrong); duplicates, a
// query equal to a representative, and NaN in the query or in a
// representative cover the rest.
func TestHintedNearestMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, dim := range []int{1, 3, 4, 7, 32, 33} {
		for trial := 0; trial < 60; trial++ {
			k := 1 + rng.Intn(12)
			coord := func() float64 { return float64(rng.Intn(3)) }
			if trial%3 == 0 {
				coord = rng.Float64
			}
			reps := make([][]float64, k)
			for r := range reps {
				reps[r] = make([]float64, dim)
				for i := range reps[r] {
					reps[r][i] = coord()
				}
			}
			if k > 1 && trial%2 == 0 { // exact duplicates, the later one at a higher id
				copy(reps[k-1], reps[rng.Intn(k-1)])
			}
			if trial%7 == 0 {
				reps[rng.Intn(k)][rng.Intn(dim)] = math.NaN()
			}
			x := indexOver(t, dim, reps)
			queries := [][]float64{append([]float64(nil), reps[rng.Intn(k)]...)} // distance zero
			for q := 0; q < 4; q++ {
				sk := make([]float64, dim)
				for i := range sk {
					sk[i] = coord()
				}
				queries = append(queries, sk)
			}
			nanQuery := make([]float64, dim)
			nanQuery[rng.Intn(dim)] = math.NaN()
			queries = append(queries, nanQuery)
			for qi, sk := range queries {
				wantRep, wantDist := linearNearest(x, sk)
				for hint := -1; hint <= k+1; hint++ {
					gotRep, gotDist := x.Nearest(sk, hint)
					if gotRep != wantRep || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
						t.Fatalf("dim %d trial %d query %d hint %d: (%d, %v), linear scan (%d, %v)\nreps %v\nquery %v",
							dim, trial, qi, hint, gotRep, gotDist, wantRep, wantDist, reps, sk)
					}
				}
			}
		}
	}
}

// TestHintsLeaveIndexUnchanged: an index fed with no hints, with each
// client's own representative (Observe), and with arbitrary hints
// serializes to the same bytes, through first sight and re-reports
// alike.
func TestHintsLeaveIndexUnchanged(t *testing.T) {
	const n = 600
	sketches := labelMixSketches(n, 12, 32, 5)
	moved := labelMixSketches(n, 15, 32, 6)
	rng := stats.NewRNG(8)
	build := func(observe func(x *Index, c int, sk []float64)) []byte {
		x := NewIndex(n, 32, 0, nil)
		for c, sk := range sketches {
			observe(x, c, sk)
		}
		for c := 0; c < n; c += 3 {
			observe(x, c, moved[c])
		}
		blob, err := x.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := build(func(x *Index, c int, sk []float64) { x.ObserveFrom(c, sk, -1) })
	for name, observe := range map[string]func(x *Index, c int, sk []float64){
		"own":    func(x *Index, c int, sk []float64) { x.Observe(c, sk) },
		"random": func(x *Index, c int, sk []float64) { x.ObserveFrom(c, sk, rng.Intn(x.Len()+3)-1) },
	} {
		if got := build(observe); !bytes.Equal(got, want) {
			t.Errorf("%s hints: snapshot differs from the unhinted index's", name)
		}
	}
}

// BenchmarkNearest is the representative search alone, at select_scale's
// shape: K = 20 representatives of width 32, probed with 2 000 clients'
// sketches in turn. "hint" measures each probe from the client's own
// representative first, as Observe and the re-cluster do; "none" passes
// no hint, as a fresh index's first sight does. `make bench-guard` runs
// it once.
func BenchmarkNearest(b *testing.B) {
	const n, groups, dim = 2000, 20, 32
	sketches := labelMixSketches(n, groups, dim, 3)
	idx := NewIndex(n, dim, 0, nil)
	for c, sk := range sketches {
		idx.Observe(c, sk)
	}
	if idx.Len() != groups {
		b.Fatalf("%d representatives, want %d", idx.Len(), groups)
	}
	for _, tc := range []struct {
		name   string
		hinted bool
	}{{"hint", true}, {"none", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := i % n
				hint := -1
				if tc.hinted {
					hint = idx.Assignment(c)
				}
				idx.Nearest(sketches[c], hint)
			}
		})
	}
}

// fuzzCoords is the coordinate palette FuzzNearestMatchesLinearScan
// decodes one byte into: small integers, where equal partial sums and
// exact ties are common, signed zeros, subnormals, values whose square
// rounds to zero or overflows, the infinities and NaN.
var fuzzCoords = [16]float64{
	0, math.Copysign(0, -1), 1, 2, 3, -1, 0.5, 0.25,
	5e-324, -1e-310, 1e-170, 1e155,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
}

// decodeNearestInput reads a fuzz input: the width (1–8), the
// representative count (0–8), then one palette byte per coordinate —
// the representatives' and then the query's, a missing byte reading 0.
func decodeNearestInput(data []byte) (dim int, reps [][]float64, query []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dim = 1 + int(next()%8)
	reps = make([][]float64, next()%9)
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = fuzzCoords[next()%16]
		}
		return v
	}
	for r := range reps {
		reps[r] = vec()
	}
	return dim, reps, vec()
}

// FuzzNearestMatchesLinearScan is TestHintedNearestMatchesLinearScan
// with the inputs chosen by the fuzzer: for every hint in [−2, K+1] the
// hinted search returns the plain scan's representative and distance
// bits. It checks three indexes over the decoded vectors, so that each
// path that derives the search's peak state is covered: one built by
// Observe (founding), the same index after Snapshot → Restore, and one
// restored holding exactly the decoded representatives, duplicates and
// NaN included. The query is the decoded one and each representative.
func FuzzNearestMatchesLinearScan(f *testing.F) {
	for _, seed := range nearestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, reps, query := decodeNearestInput(data)
		built := NewIndex(len(reps), dim, 0, nil)
		for c, v := range reps {
			built.Observe(c, v)
		}
		blob, err := built.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewIndex(len(reps), dim, 0, nil)
		if err := restored.Restore(blob); err != nil {
			t.Fatalf("an index's own snapshot was refused: %v", err)
		}
		queries := append([][]float64{query}, reps...)
		for name, x := range map[string]*Index{"built": built, "restored": restored, "exact": indexOver(t, dim, reps)} {
			for qi, sk := range queries {
				wantRep, wantDist := linearNearest(x, sk)
				for hint := -2; hint <= x.Len()+1; hint++ {
					gotRep, gotDist := x.Nearest(sk, hint)
					if gotRep != wantRep || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
						t.Fatalf("%s index, query %d, hint %d: (%d, %v), linear scan (%d, %v)\nreps %v\nquery %v",
							name, qi, hint, gotRep, gotDist, wantRep, wantDist, reps, sk)
					}
				}
			}
		}
	})
}

// nearestSeeds are the hand-made starting points, also committed under
// testdata/fuzz/FuzzNearestMatchesLinearScan: an exact tie (query 2
// between representatives 1 and 3, then a duplicate of the first) and
// a NaN representative ahead of a finite one.
func nearestSeeds() [][]byte {
	return [][]byte{
		{0, 3, 2, 4, 2, 3},        // width 1: reps {1}, {3}, {1}; query {2}
		{1, 2, 14, 2, 2, 3, 3, 2}, // width 2: reps {NaN, 1}, {1, 2}; query {2, 1}
	}
}
