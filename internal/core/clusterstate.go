package core

import (
	"math"
	"sort"

	"haccs/internal/cluster"
	"haccs/internal/stats"
)

// This file holds everything that hangs off the cluster assignment
// (Scheduler.labels) and is kept in step with it instead of being
// re-derived from the roster every round: the published member lists,
// the per-cluster running label mass, and the per-cluster drift cache.
//
// Running label mass. For every cluster the scheduler keeps the per-bin
// sum of its members' clamped label mass — P(y): max(0, count) per
// label; P(X|y): max(0, h.Total()) per class — as fixed-point int64
// with massFracBits fractional bits (resolution 2⁻²⁰ ≈ 9.5e-7 of one
// sample). Integer addition is exact and order-independent, so a sum
// maintained by subtracting the old summary and adding the new one
// equals the sum recomputed from scratch, bit for bit. That is what
// keeps resume bit-identical without checkpointing the sums: summaries
// are rebuilt by Init, and RestoreState recomputes the sums from them.
//
// Quantiser rules, stated once:
//   - a negative count clamps to zero (noised summaries carry negative
//     bins), exactly as the float centroid clamped it;
//   - a non-finite count (NaN, ±Inf) contributes zero;
//   - a count saturates at massCap = ⌊2⁶²/N⌋ fixed-point units, N the
//     roster size, so no sum over N clients can overflow an int64. At
//     N = 20 000 that is 2.2e8 samples in one bin of one client; at a
//     million clients, 4.4e6.
const massFracBits = 20

// quantize converts one label-mass entry to fixed point (see the rules
// above).
func (s *Scheduler) quantize(c float64) int64 {
	if !(c > 0) { // negative, zero, NaN, −Inf
		return 0
	}
	v := c * (1 << massFracBits)
	if v >= float64(s.massCap) {
		if math.IsInf(c, 1) {
			return 0
		}
		return s.massCap
	}
	return int64(v + 0.5)
}

// addMass adds (sign +1) or removes (sign −1) one summary's quantized
// label mass to cluster c's running sums. Removing recomputes the
// contribution from the stored summary, so a summary handed to the
// scheduler must not be modified afterwards.
func (s *Scheduler) addMass(c int, sum Summary, sign int64) {
	m := s.mass[c]
	if sum.Kind == PY {
		for b, v := range sum.Label.Counts {
			m[b] += sign * s.quantize(v)
		}
		return
	}
	for cls, h := range sum.Feature {
		if h != nil {
			m[cls] += sign * s.quantize(h.Total())
		}
	}
}

// swapMass replaces one summary's quantized label mass in cluster c's
// running sums with another's in one pass — the re-report of a client
// that stays in its cluster. The sums are integers, so adding the
// difference equals removing old and adding sum, bit for bit. Both
// summaries have the roster's shape.
func (s *Scheduler) swapMass(c int, old, sum Summary) {
	m := s.mass[c]
	if sum.Kind == PY {
		prev := old.Label.Counts[:len(sum.Label.Counts)]
		for b, v := range sum.Label.Counts {
			m[b] += s.quantize(v) - s.quantize(prev[b])
		}
		return
	}
	for cls, h := range sum.Feature {
		var d int64
		if h != nil {
			d = s.quantize(h.Total())
		}
		if o := old.Feature[cls]; o != nil {
			d -= s.quantize(o.Total())
		}
		m[cls] += d
	}
}

// centroidInto writes cluster i's label-distribution centroid into dst
// (length s.bins) from the running sums in O(bins): the normalized
// per-bin mass, uniform for a cluster whose members carry no positive
// mass so the drift distance stays well defined. The total is
// accumulated in float64 in bin order — a fixed order over exact
// integers, hence deterministic, and equal to the float walk over the
// members it replaced whenever counts are integers and the sums stay
// below 2⁵³.
func (s *Scheduler) centroidInto(dst []float64, i int) {
	total := 0.0
	for b, m := range s.mass[i] {
		dst[b] = float64(m)
		total += dst[b]
	}
	if total <= 0 {
		u := 1.0 / float64(len(dst))
		for b := range dst {
			dst[b] = u
		}
		return
	}
	for b := range dst {
		dst[b] /= total
	}
}

// captureBaseline returns cluster i's current centroid as a baseline of
// its own storage; nil for a cluster without members.
func (s *Scheduler) captureBaseline(i int) []float64 {
	if len(s.clusters[i]) == 0 {
		return nil
	}
	b := make([]float64, s.bins)
	s.centroidInto(b, i)
	return b
}

// driftOf is the one drift function: the Hellinger distance between
// cluster i's current centroid and the baseline captured when the
// clustering in force was computed. A cluster that had members at
// baseline and has none now reads 1 — its population migrated
// wholesale, the extreme form of drift. A cluster without a usable
// baseline reads 0. Both the re-cluster trigger and the fleet drift
// gauge read the cached result (Scheduler.drift).
func (s *Scheduler) driftOf(i int) float64 {
	if i >= len(s.baseline) {
		return 0
	}
	base := s.baseline[i]
	if len(s.clusters[i]) == 0 {
		if len(base) > 0 {
			return 1
		}
		return 0
	}
	if len(base) != s.bins {
		return 0
	}
	s.centroidInto(s.centroidBuf, i)
	return stats.Hellinger(s.centroidBuf, base)
}

// rankByLatency fills s.latOrder, the roster ordered by (latency, ID),
// and s.latRank, each client's position in it. Latencies are fixed at
// Init, so every latency-ordered member list is a filter of this one
// order. A NaN latency sorts last, only so that the order is total:
// Select does not consult it for a cluster in which a NaN-latency
// member is available (see pickWithin).
func (s *Scheduler) rankByLatency() {
	order := make([]int, len(s.latency))
	for id := range order {
		order[id] = id
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		la, lb := s.latency[a], s.latency[b]
		if la < lb || lb < la {
			return la < lb
		}
		if na, nb := math.IsNaN(la), math.IsNaN(lb); na != nb {
			return nb
		}
		return a < b
	})
	s.latOrder = order
	s.latRank = make([]int, len(order))
	for r, id := range order {
		s.latRank[id] = r
	}
}

// rebuildLocked derives, from s.labels and the current summaries, the
// membership and the sums this file maintains: member lists (ascending
// ID, indexed as cluster.Members indexes them), the same members by
// (latency, ID), and the running label mass. prev, when non-nil, is the
// labelling s.mass is currently the exact sum for; the sums are then
// carried across the relabel (carryMassLocked) instead of recomputed.
// Pass nil wherever summaries may have changed without the sums. The
// caller follows it with setBaselinesLocked. Callers hold s.mu.
func (s *Scheduler) rebuildLocked(prev []int) {
	s.clusters = cluster.Members(s.labels)
	n := len(s.clusters)

	// Latency order: walk the roster by rank and deal each client to its
	// cluster's list, all lists carved out of one backing array.
	s.byLat = make([][]int, n)
	flat, off := make([]int, len(s.latOrder)), 0
	for i, members := range s.clusters {
		if m := len(members); m > 0 {
			s.byLat[i] = flat[off : off : off+m]
			off += m
		}
	}
	for _, id := range s.latOrder {
		l := s.labels[id]
		s.byLat[l] = append(s.byLat[l], id)
	}

	if prev != nil {
		s.carryMassLocked(prev, n)
	} else {
		s.mass, s.dirty = nil, nil
		s.growMass(n)
		for id, l := range s.labels {
			s.addMass(l, s.summaries[id], +1)
		}
	}
	s.version++
}

// carryMassLocked re-keys the running sums from the labelling prev to
// s.labels (n clusters) without re-quantizing the roster. Each old
// cluster's sums move, whole, to the new label of its first member (two
// old clusters landing on one label add up); only the clients whose new
// label differs from where their old cluster's sums went are taken out
// of that row and added to their own. Integer addition is exact and
// order-independent, so the result equals the from-scratch sum bit for
// bit. Callers hold s.mu.
func (s *Scheduler) carryMassLocked(prev []int, n int) {
	old := s.mass
	s.mass, s.dirty = make([][]int64, n), make([]bool, n)
	dest := make([]int, len(old)) // old label -> new row its sums went to, -1 before its first member
	for c := range dest {
		dest[c] = -1
	}
	for id, c := range prev {
		if dest[c] >= 0 {
			continue
		}
		to := s.labels[id]
		dest[c] = to
		if row := s.mass[to]; row == nil {
			s.mass[to] = old[c]
		} else {
			for b, v := range old[c] {
				row[b] += v
			}
		}
	}
	for i := range s.mass {
		if s.mass[i] == nil {
			s.mass[i] = make([]int64, s.bins)
		}
	}
	for id, c := range prev {
		if to := s.labels[id]; to != dest[c] {
			s.addMass(dest[c], s.summaries[id], -1)
			s.addMass(to, s.summaries[id], +1)
		}
	}
}

// captureBaselines returns every cluster's current centroid — the
// baselines of a clustering just computed.
func (s *Scheduler) captureBaselines() [][]float64 {
	out := make([][]float64, len(s.clusters))
	for i := range out {
		out[i] = s.captureBaseline(i)
	}
	return out
}

// setBaselinesLocked installs the drift reference (fresh after a
// re-clustering, the snapshot's after a restore) and re-evaluates every
// cluster's cached drift against it. Callers hold s.mu.
func (s *Scheduler) setBaselinesLocked(baseline [][]float64) {
	s.baseline = baseline
	s.drift = make([]float64, len(s.clusters))
	for i := range s.drift {
		s.drift[i] = s.driftOf(i)
	}
}

// growMass extends the running sums (and their dirty flags) with zeroed
// rows up to n clusters.
func (s *Scheduler) growMass(n int) {
	for len(s.mass) < n {
		s.mass = append(s.mass, make([]int64, s.bins))
		s.dirty = append(s.dirty, false)
	}
}

// move records one client whose cluster label changed in the current
// UpdateSummaries batch.
type move struct{ id, from, to int }

// applyMovesLocked republishes the member lists of exactly the clusters
// a client left or joined. s.labels already carries the new labels. A
// published list is never written again: each affected cluster gets a
// new list (nil when it emptied), the outer slices are copied, and the
// version is bumped. Like cluster.Members, the view ends at the highest
// label that still has members. Callers hold s.mu.
func (s *Scheduler) applyMovesLocked(moves []move) {
	n := len(s.clusters)
	for _, m := range moves {
		if m.to >= n {
			n = m.to + 1
		}
	}
	clusters := make([][]int, n)
	byLat := make([][]int, n)
	copy(clusters, s.clusters)
	copy(byLat, s.byLat)

	// Every affected cluster and its joiners; moves arrive in ascending ID
	// order, so each joiner list is ascending too. Each cluster's lists are
	// rebuilt independently, so map order does not matter.
	joiners := map[int][]int{}
	for _, m := range moves {
		joiners[m.to] = append(joiners[m.to], m.id)
		if _, ok := joiners[m.from]; !ok {
			joiners[m.from] = nil // left, maybe never joined: rebuilt all the same
		}
	}
	byRank := func(a, b int) bool { return s.latRank[a] < s.latRank[b] }
	for c, join := range joiners {
		var old, oldByLat []int
		if c < len(s.clusters) {
			old, oldByLat = s.clusters[c], s.byLat[c]
		}
		clusters[c] = s.mergeMembers(c, old, join, func(a, b int) bool { return a < b })
		sort.Slice(join, func(a, b int) bool { return byRank(join[a], join[b]) })
		byLat[c] = s.mergeMembers(c, oldByLat, join, byRank)
	}
	for n > 0 && len(clusters[n-1]) == 0 {
		n--
	}
	s.clusters, s.byLat = clusters[:n], byLat[:n]
	s.version++
}

// mergeMembers builds cluster c's new list: the old list minus the
// clients that left (their label is no longer c) merged with the
// joiners; both inputs are sorted by less. An emptied cluster gets nil,
// as cluster.Members would give it.
func (s *Scheduler) mergeMembers(c int, old, join []int, less func(a, b int) bool) []int {
	out := make([]int, 0, len(old)+len(join))
	j := 0
	for _, id := range old {
		if s.labels[id] != c {
			continue
		}
		for j < len(join) && less(join[j], id) {
			out = append(out, join[j])
			j++
		}
		out = append(out, id)
	}
	out = append(out, join[j:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// syncDriftLocked brings the drift cache in line after a batch and
// returns the largest cached drift — the re-cluster trigger. Clusters
// born since the last re-clustering get their baseline captured at
// first sight, so their drift starts at zero rather than being measured
// against nothing; only clusters whose sums or membership changed
// (dirty), or that entered the view, are re-evaluated. Callers hold
// s.mu.
func (s *Scheduler) syncDriftLocked() float64 {
	n := len(s.clusters)
	for len(s.baseline) < n {
		s.baseline = append(s.baseline, s.captureBaseline(len(s.baseline)))
	}
	// A cluster can re-enter the view untouched (a label born above a
	// trailing emptied one brings it back as an empty list).
	for i := len(s.drift); i < n; i++ {
		s.drift = append(s.drift, 0)
		s.dirty[i] = true
	}
	s.drift = s.drift[:n]
	maxDrift := 0.0
	for i := range s.dirty {
		if s.dirty[i] {
			s.dirty[i] = false
			if i < n {
				s.drift[i] = s.driftOf(i)
			}
		}
	}
	for _, d := range s.drift {
		if d > maxDrift {
			maxDrift = d
		}
	}
	return maxDrift
}
