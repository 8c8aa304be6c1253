package sketch

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// DefaultAttachRadius is the sketch-space Hellinger radius within which
// a client attaches to an existing representative instead of founding a
// new one. Same-distribution clients sampled from a few hundred
// examples land within ~0.05–0.08 of each other (multinomial sampling
// noise), while distinct label mixtures sit several tenths apart, so
// 0.1 absorbs sampling noise into a handful of representatives per
// distribution without ever merging distributions a density-based
// extraction would separate.
const DefaultAttachRadius = 0.1

// Index is the representative layer of the sketch clustering pipeline:
// a greedy ε-net (leader algorithm) over sketch space. The first client
// seen in any neighbourhood founds a representative holding a verbatim
// copy of its sketch; every later client within AttachRadius assigns to
// the nearest representative in O(K·Dim) — no pairwise structure, no
// global recomputation on churn. Density-based clustering then runs
// over the K representatives only, and a client's cluster is its
// representative's cluster.
//
// Determinism: representatives depend only on the order clients are
// Observed, so callers feed clients in a canonical order (ascending ID)
// and the index is bit-stable — the property the checkpoint layer's
// bit-identical resume contract relies on.
type Index struct {
	dim    int
	attach float64   // attach radius on the [0,1] sketch-distance scale
	metric Metric    // nil selects the Euclidean/√2 Hellinger estimate
	reps   []float64 // K·dim flat representative sketches, append-only
	counts []int     // members currently assigned to each representative
	assign []int     // client -> representative (-1 while unseen)
	// peaks holds each representative's largest-magnitude coordinate, the
	// one the search probes first, and peakVals that coordinate's value,
	// contiguous so the probe reads no representative it then rejects;
	// both derived from reps, never serialized.
	peaks    []int
	peakVals []float64
}

// Metric is a custom dissimilarity over encoded vectors, for callers
// whose sketch layout carries more than a flat amplitude embedding
// (e.g. per-class blocks plus prevalence masses). Implementations must
// return values in [0, 1], be symmetric, and not allocate — Nearest
// runs them once per representative on the steady-state path.
type Metric interface {
	Distance(a, b []float64) float64
}

// NewIndex builds an empty index over nClients slots. attachRadius <= 0
// selects DefaultAttachRadius; a nil metric selects the default
// Euclidean/√2 sketch distance. The metric is part of the index's
// construction, not its serialized state — Restore keeps whatever the
// receiving index was built with.
func NewIndex(nClients, dim int, attachRadius float64, metric Metric) *Index {
	if dim <= 0 {
		panic("sketch: NewIndex with non-positive dim")
	}
	if attachRadius <= 0 {
		attachRadius = DefaultAttachRadius
	}
	idx := &Index{dim: dim, attach: attachRadius, metric: metric, assign: make([]int, nClients)}
	for i := range idx.assign {
		idx.assign[i] = -1
	}
	return idx
}

// Len returns the number of representatives K.
func (x *Index) Len() int { return len(x.counts) }

// NumClients returns the number of client slots.
func (x *Index) NumClients() int { return len(x.assign) }

// AttachRadius returns the radius within which clients attach to an
// existing representative.
func (x *Index) AttachRadius() float64 { return x.attach }

// Rep returns a read-only view of representative r's sketch.
func (x *Index) Rep(r int) []float64 { return x.reps[r*x.dim : (r+1)*x.dim] }

// Count returns how many clients are currently assigned to
// representative r.
func (x *Index) Count(r int) int { return x.counts[r] }

// Assignment returns client c's representative, or -1 if the client has
// never been observed.
func (x *Index) Assignment(c int) int { return x.assign[c] }

// Nearest finds the representative closest to sk and returns its id
// and distance on the [0,1] sketch scale: the lowest id among the
// minima, never a representative at NaN distance. It allocates nothing.
// Returns (-1, +Inf) on an empty index.
//
// hint is a representative to measure first, -1 for none. It only makes
// the search cheaper, never different. On the default metric the hint's
// squared distance becomes the bound; every other representative is
// then scanned in ascending order and abandoned as soon as one term —
// its peak coordinate's, probed first — or its partial sum exceeds the
// best so far. That is exact: a sum of non-negative terms never falls
// below a partial sum or below any one of its terms under IEEE
// rounding, so an abandoned candidate could not have won or tied; a
// survivor's sum is the same sequential sum DistanceSq computes; and an
// exact tie goes to the lower id, which is the plain scan's first
// minimum. A hint out of range, or one at NaN or +Inf distance, bounds
// nothing and the scan starts unbounded. A custom Metric is not a sum
// of non-negative terms, so it always takes the full scan.
func (x *Index) Nearest(sk []float64, hint int) (rep int, dist float64) {
	if x.metric != nil {
		best, bestD := -1, math.Inf(1)
		for r := 0; r < len(x.counts); r++ {
			d := x.metric.Distance(x.reps[r*x.dim:(r+1)*x.dim], sk)
			if d < bestD {
				best, bestD = r, d
			}
		}
		return best, bestD
	}
	best, bestSq := -1, math.Inf(1)
	if hint >= 0 && hint < len(x.counts) {
		if d := DistanceSq(x.Rep(hint), sk); d < bestSq {
			best, bestSq = hint, d
		}
	}
	skip := best
	for r := 0; r < len(x.counts); r++ {
		if r == skip {
			continue
		}
		if t := x.peakVals[r] - sk[x.peaks[r]]; t*t > bestSq {
			continue
		}
		d := distanceSqAbove(x.reps[r*x.dim:(r+1)*x.dim], sk, bestSq)
		if d < bestSq || (d == bestSq && r < best) {
			best, bestSq = r, d
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	d := math.Sqrt(bestSq) / math.Sqrt2
	if d > 1 {
		d = 1
	}
	return best, d
}

// RepDistance returns the configured metric's distance between two
// representatives — the pairwise kernel the K×K representative
// clustering runs on.
func (x *Index) RepDistance(r1, r2 int) float64 {
	a, b := x.Rep(r1), x.Rep(r2)
	if x.metric != nil {
		return x.metric.Distance(a, b)
	}
	return Distance(a, b)
}

// peakOf returns the index of v's largest-magnitude coordinate, the
// lowest on a tie. For a candidate far from the query, that coordinate's
// term alone usually exceeds the bound.
func peakOf(v []float64) int {
	j := 0
	for i, a := range v {
		if math.Abs(a) > math.Abs(v[j]) {
			j = i
		}
	}
	return j
}

// distanceSqAbove is DistanceSq that gives up once the running sum
// exceeds bound: the result is then some partial sum > bound, otherwise
// exactly DistanceSq(a, b).
func distanceSqAbove(a, b []float64, bound float64) float64 {
	b = b[:len(a)]
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > bound {
			return sum
		}
	}
	return sum
}

// Observe assigns client c to the nearest representative within the
// attach radius, founding a new representative from a copy of sk when
// none is close enough (or when the index is empty). It returns the
// representative id and whether it was newly created. Re-observing a
// client (a §IV-C summary update) moves its assignment and adjusts the
// member counts. The client's current representative is the search
// hint (see ObserveFrom).
func (x *Index) Observe(c int, sk []float64) (rep int, created bool) {
	return x.ObserveFrom(c, sk, x.assign[c])
}

// ObserveFrom is Observe with the nearest-representative search
// measured from hint first — a representative the caller expects sk to
// be close to, or -1 for none. The hint changes the cost of the search,
// never its result (see Nearest).
func (x *Index) ObserveFrom(c int, sk []float64, hint int) (rep int, created bool) {
	if len(sk) != x.dim {
		panic(fmt.Sprintf("sketch: Observe sketch width %d, index width %d", len(sk), x.dim))
	}
	rep, dist := x.Nearest(sk, hint)
	if rep == -1 || dist > x.attach {
		rep = len(x.counts)
		x.reps = append(x.reps, sk...)
		x.counts = append(x.counts, 0)
		j := peakOf(sk)
		x.peaks = append(x.peaks, j)
		x.peakVals = append(x.peakVals, sk[j])
		created = true
	}
	if prev := x.assign[c]; prev >= 0 {
		x.counts[prev]--
	}
	x.assign[c] = rep
	x.counts[rep]++
	return rep, created
}

// indexState is the gob payload behind Snapshot/Restore. Exported
// fields for gob.
type indexState struct {
	Dim    int
	Attach float64
	Reps   []float64
	Counts []int
	Assign []int
}

// Snapshot serializes the index — representative sketches verbatim, so
// a resumed run's future Observe calls see bit-identical geometry.
func (x *Index) Snapshot() ([]byte, error) {
	st := indexState{
		Dim:    x.dim,
		Attach: x.attach,
		Reps:   x.reps,
		Counts: x.counts,
		Assign: x.assign,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("sketch: encode index: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore overwrites the index from a Snapshot payload. The index must
// have been constructed over the same client count and sketch width as
// the run that produced the snapshot. A payload the index could not
// later route on — a non-positive or NaN radius, an assignment outside
// [-1, K), or member counts that disagree with the assignments — is
// refused, and the index is left as it was.
func (x *Index) Restore(data []byte) error {
	var st indexState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("sketch: decode index: %w", err)
	}
	if st.Dim != x.dim {
		return fmt.Errorf("sketch: snapshot sketch width %d, index width %d", st.Dim, x.dim)
	}
	if len(st.Assign) != len(x.assign) {
		return fmt.Errorf("sketch: snapshot for %d clients, index has %d", len(st.Assign), len(x.assign))
	}
	if len(st.Reps) != st.Dim*len(st.Counts) {
		return fmt.Errorf("sketch: corrupt snapshot: %d rep floats for %d representatives of width %d",
			len(st.Reps), len(st.Counts), st.Dim)
	}
	if !(st.Attach > 0) {
		return fmt.Errorf("sketch: corrupt snapshot: attach radius %v", st.Attach)
	}
	k := len(st.Counts)
	counts := make([]int, k)
	for c, r := range st.Assign {
		if r < -1 || r >= k {
			return fmt.Errorf("sketch: corrupt snapshot: client %d assigned to representative %d of %d", c, r, k)
		}
		if r >= 0 {
			counts[r]++
		}
	}
	for r, n := range counts {
		if st.Counts[r] != n {
			return fmt.Errorf("sketch: corrupt snapshot: representative %d counts %d members, %d are assigned to it", r, st.Counts[r], n)
		}
	}
	x.peaks, x.peakVals = make([]int, k), make([]float64, k)
	for r := range x.peaks {
		rep := st.Reps[r*st.Dim : (r+1)*st.Dim]
		x.peaks[r] = peakOf(rep)
		x.peakVals[r] = rep[x.peaks[r]]
	}
	x.attach = st.Attach
	x.reps = st.Reps
	x.counts = st.Counts
	x.assign = st.Assign
	return nil
}
