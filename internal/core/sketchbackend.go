package core

import (
	"errors"
	"fmt"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/cluster"
	"haccs/internal/introspect"
	"haccs/internal/sketch"
)

// ClusterBackend selects how the scheduler turns summaries into
// clusters.
type ClusterBackend int

const (
	// DenseBackend is the published Algorithm 1 pipeline: the full N×N
	// pairwise Hellinger matrix clustered directly with OPTICS. Exact,
	// but O(N²) time and memory — fine to a few thousand clients.
	DenseBackend ClusterBackend = iota
	// SketchBackend replaces the pairwise matrix with fixed-size
	// distribution sketches and a representative index: each client is
	// assigned to the nearest of K ≪ N representatives in O(K·Dim),
	// OPTICS runs over the K representatives only, and summary updates
	// reassign incrementally without a global re-clustering (a full
	// recluster triggers only when a cluster's label-distribution drift
	// exceeds SketchOptions.DriftThreshold). O(N·K) total, no N×N
	// allocation anywhere.
	SketchBackend
)

// String implements fmt.Stringer.
func (b ClusterBackend) String() string {
	switch b {
	case DenseBackend:
		return "dense"
	case SketchBackend:
		return "sketch"
	default:
		return fmt.Sprintf("ClusterBackend(%d)", int(b))
	}
}

// ParseClusterBackend maps the CLI spelling to a backend.
func ParseClusterBackend(s string) (ClusterBackend, error) {
	switch s {
	case "dense":
		return DenseBackend, nil
	case "sketch":
		return SketchBackend, nil
	default:
		return DenseBackend, fmt.Errorf("core: unknown cluster backend %q (want dense or sketch)", s)
	}
}

// DefaultDriftThreshold is the per-cluster Hellinger drift (current
// label centroid vs. the centroid captured at cluster time — the same
// gauge the fleet registry exports) above which the sketch backend
// abandons incremental assignment and re-clusters from scratch.
const DefaultDriftThreshold = 0.1

// SketchOptions parameterizes the sketch backend. The zero value is
// fully usable: default sketch width, seed 0, and DefaultDriftThreshold.
type SketchOptions struct {
	// Dim is the sketch width (0 selects sketch.DefaultDim).
	Dim int
	// Seed drives the sketch projection; any fixed value is fine, equal
	// values give bit-identical sketches.
	Seed uint64
	// DriftThreshold triggers a full recluster when any cluster's
	// label-centroid Hellinger drift exceeds it (0 selects
	// DefaultDriftThreshold, negative disables drift reclustering).
	DriftThreshold float64
}

// introspectAssignCap bounds the per-client assignment vector exposed
// on /debug/selection; fleets past this size report only the
// representative-level state.
const introspectAssignCap = 2048

// sketchState is the scheduler's sketch-backend working state. All
// fields are written on the round-driver loop under Scheduler.mu
// (SelectionState and the checkpoint layer read them concurrently).
//
// The index holds each client's summary through the encoder with a
// sketcher (summary.go):
//
//   - P(y): the encoded vector is the sketch of the label amplitude
//     √P(y) — width Dim, compared with the default Euclidean/√2 sketch
//     distance, which is exactly Hellinger whenever the class count
//     fits the sketch (the common case).
//   - P(X|y): one sketched per-class amplitude √P(X|c) per block, then
//     the per-class masses, compared with pxyMetric — bit-identical to
//     the dense path when the feature bins fit the block, a low-error
//     estimate otherwise.
type sketchState struct {
	enc    *encoder
	index  *sketch.Index
	attach float64 // attach radius: sketch.DefaultAttachRadius for P(y), pxyAttachRadius for P(X|y)
	// rows holds every client's encoded vector, N × enc.width: row id
	// equals encodeInto(summaries[id]) bit for bit. Init encodes them
	// all, observeLocked re-encodes a re-reported client's, and the drift
	// re-cluster routes them as they stand instead of re-encoding the
	// roster. Only the round-driver loop touches them (no concurrent
	// reader does), so the Init encode runs off the lock. 8·N·width
	// bytes: 5.1 MB at 20 000 clients of width 32.
	rows []float64
	// repLabels maps representative -> cluster label; representatives
	// born after the last full recluster get fresh singleton labels.
	repLabels []int
	nextLabel int
	// reclusters counts full re-clusterings since Init (drift triggers
	// and explicit ones alike).
	reclusters int
}

// pxyAttachRadius is the attach radius on the P(X|y) metric.
// The prevalence-weighted average compresses distances relative to raw
// Hellinger — per-class sampling noise is averaged down — so both
// within-distribution spread and between-distribution separation sit
// much lower than on the P(y) scale (the same compression that makes
// pxyMinSilhouette lower than the default). Empirically on the seed
// majority-noise workloads, distinct distributions approach within
// ~0.05 of each other while 0.03 still absorbs same-distribution
// jitter, so 0.03 keeps the representative layer from ever merging
// distributions the dense path separates.
const pxyAttachRadius = 0.03

// newSketchState builds the sketching encoder for the summary
// population and picks the kind's attach radius.
func newSketchState(cfg Config, summaries []Summary) *sketchState {
	st := &sketchState{enc: newEncoder(summaries, &cfg.Sketch), attach: sketch.DefaultAttachRadius}
	if cfg.Kind == PXY {
		st.attach = pxyAttachRadius
	}
	st.rows = make([]float64, len(summaries)*st.enc.width)
	return st
}

// row returns client id's encoded vector.
func (sk *sketchState) row(id int) []float64 {
	w := sk.enc.width
	return sk.rows[id*w : (id+1)*w]
}

// observeLocked encodes client id's current summary into its row and
// routes it through the representative index, assigning fresh singleton
// labels to newly founded representatives. Callers hold Scheduler.mu.
func (s *Scheduler) observeLocked(id int) (rep int, created bool) {
	sk := s.sk
	row := sk.row(id)
	sk.enc.encodeInto(row, s.summaries[id])
	rep, created = sk.index.Observe(id, row)
	if created {
		sk.repLabels = append(sk.repLabels, sk.nextLabel)
		sk.nextLabel++
	}
	return rep, created
}

// reclusterSketch rebuilds the representative index from scratch and
// clusters the K representatives — the sketch backend's analogue of
// recluster, with OPTICS cost K² instead of N² and no N×N allocation.
// carry says the running label mass and the encoded rows are current
// for s.labels and s.summaries (true on the drift trigger, where
// updateSketch maintained both; false at Init), so the rebuild may carry
// the mass across the relabel and route the rows as they stand instead
// of recomputing either. The new index, labels and clustering are built
// on locals off the lock and published in one locked section: a
// concurrent reader sees the clustering before or after, never a mix.
func (s *Scheduler) reclusterSketch(carry bool) {
	start := time.Now()
	if s.sk == nil {
		s.sk = newSketchState(s.cfg, s.summaries)
	}
	sk := s.sk
	n := len(s.summaries)
	if !carry {
		for id, sum := range s.summaries {
			sk.enc.encodeInto(sk.row(id), sum)
		}
	}

	// Clients feed the leader index in ascending ID order — the
	// canonical order that makes the representative set deterministic.
	// The old index, which only this loop writes, supplies each search's
	// hint: where the previous client from the same old representative
	// landed. Hints change the cost of a search, never its result.
	idx := sketch.NewIndex(n, sk.enc.width, sk.attach, sk.enc.metric())
	old := sk.index
	var landed []int // old representative -> new representative of its latest client
	if old != nil {
		landed = make([]int, old.Len())
		for r := range landed {
			landed[r] = -1
		}
	}
	for id := 0; id < n; id++ {
		from, hint := -1, -1
		if old != nil {
			if from = old.Assignment(id); from >= 0 {
				hint = landed[from]
			}
		}
		rep, _ := idx.ObserveFrom(id, sk.row(id), hint)
		if from >= 0 {
			landed[from] = rep
		}
	}

	// Cluster the representatives with the very machinery the dense
	// path applies to clients.
	//
	// Density must reflect population, not representative count: a
	// distribution group whose clients all collapse onto one
	// representative would otherwise look like a lone outlier to OPTICS
	// (it can never reach minPts neighbours), and silhouette extraction
	// would declare the fleet structureless. So each representative
	// enters the clustering as min(count, minPts) virtual copies at
	// mutual distance zero — a rep backed by enough clients is a dense
	// core by itself, exactly as its members would be on the dense
	// path, while a single-client rep can still land in noise and be
	// singletonized. The matrix stays O((minPts·K)²), independent of N.
	k := idx.Len()
	vrep := make([]int, 0, 2*k) // virtual point -> representative
	first := make([]int, k)     // representative -> its first virtual point
	for r := 0; r < k; r++ {
		copies := max(1, min(idx.Count(r), minPts))
		first[r] = len(vrep)
		for t := 0; t < copies; t++ {
			vrep = append(vrep, r)
		}
	}
	m := cluster.FromFunc(len(vrep), func(i, j int) float64 {
		if vrep[i] == vrep[j] {
			return 0
		}
		return idx.RepDistance(vrep[i], vrep[j])
	})
	vlabels, next, res := clusterMatrix(s.cfg.Metrics, m, minSilhouette(s.cfg.Kind))
	// Collapse virtual copies back to representatives, then turn noise
	// representatives into singleton clusters numbered after the largest
	// virtual label, exactly as noise clients are on the dense path.
	repLabels := make([]int, k)
	for r := range repLabels {
		repLabels[r] = vlabels[first[r]]
	}
	next = singletonize(repLabels, next)
	labels := make([]int, n)
	for id := 0; id < n; id++ {
		labels[id] = repLabels[idx.Assignment(id)]
	}
	var prev []int
	if carry {
		prev = s.labels
	}

	// The distance/reachability introspection describes the K
	// representatives (the set OPTICS actually saw), not the N clients.
	s.mu.Lock()
	sk.index = idx
	sk.repLabels = repLabels
	sk.nextLabel = next
	sk.reclusters++
	s.publishLocked(labels, prev, m, res)
	numClusters := len(s.clusters)
	s.mu.Unlock()

	s.reclustered(start, numClusters)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("haccs_sketch_representatives", "Representatives backing the sketch clustering.").Set(float64(k))
	}
}

// updateSketch is the sketch backend's §IV-C adaptation path, at a cost
// proportional to the batch: each changed client's old label mass leaves
// its cluster's running sums, the client is re-sketched and re-routed
// through the representative index — O(K·Dim) — and its new mass joins
// the cluster it lands in; member lists are republished only for
// clusters a client actually left or joined, and drift is re-evaluated
// only for clusters the batch touched. A full recluster runs when some
// cluster's cached drift is past the configured threshold. ids must be
// sorted (ascending) so the representative set stays independent of map
// iteration order; sums[i] is client ids[i]'s new summary.
func (s *Scheduler) updateSketch(ids []int, sums []Summary) {
	s.mu.Lock()
	var moves []move
	for i, id := range ids {
		from, old := s.labels[id], s.summaries[id]
		s.summaries[id] = sums[i]
		rep, _ := s.observeLocked(id)
		to := s.sk.repLabels[rep]
		if to == from {
			s.swapMass(from, old, sums[i])
			s.dirty[from] = true
			continue
		}
		s.addMass(from, old, -1)
		s.growMass(to + 1)
		s.addMass(to, sums[i], +1)
		s.dirty[from], s.dirty[to] = true, true
		s.labels[id] = to
		moves = append(moves, move{id: id, from: from, to: to})
	}
	if len(moves) > 0 {
		s.applyMovesLocked(moves)
	}
	maxDrift := s.syncDriftLocked()
	threshold := s.cfg.Sketch.DriftThreshold
	if threshold == 0 {
		threshold = DefaultDriftThreshold
	}
	s.mu.Unlock()

	if threshold > 0 && maxDrift > threshold {
		s.reclusterSketch(true)
	}
}

// sketchSelectionStateLocked fills the sketch-specific introspection
// view. Callers hold Scheduler.mu.
func (s *Scheduler) sketchSelectionStateLocked() *introspect.SketchState {
	sk := s.sk
	if sk == nil || sk.index == nil {
		return nil
	}
	st := &introspect.SketchState{
		Dim:             sk.enc.block,
		AttachRadius:    sk.index.AttachRadius(),
		Representatives: sk.index.Len(),
		RepLabels:       append([]int(nil), sk.repLabels...),
		Reclusters:      sk.reclusters,
	}
	st.RepCounts = make([]int, sk.index.Len())
	for r := range st.RepCounts {
		st.RepCounts[r] = sk.index.Count(r)
	}
	if n := sk.index.NumClients(); n <= introspectAssignCap {
		st.Assignments = make([]int, n)
		for c := 0; c < n; c++ {
			st.Assignments[c] = sk.index.Assignment(c)
		}
	}
	return st
}

// sketchStateVersion versions the sketch component's gob payload.
const sketchStateVersion = 1

// sketchComponentState is the serialized sketch-backend state: the
// representative index (sketches verbatim), the representative→cluster
// label map, and the label/recluster counters. Together with the
// "strategy" component's labels and baselines this resumes the sketch
// pipeline bit-identically: the restored index routes future
// observations exactly as the interrupted run would have.
type sketchComponentState struct {
	Version    int
	Index      []byte
	RepLabels  []int
	NextLabel  int
	Reclusters int
}

// sketchCheckpoint adapts the scheduler's sketch state to
// checkpoint.Snapshotter under the "sketch" component name.
type sketchCheckpoint struct{ s *Scheduler }

// SnapshotState implements checkpoint.Snapshotter.
func (c sketchCheckpoint) SnapshotState() ([]byte, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sk == nil || s.sk.index == nil {
		return nil, errors.New("core: sketch backend not initialized")
	}
	idx, err := s.sk.index.Snapshot()
	if err != nil {
		return nil, err
	}
	st := sketchComponentState{
		Version:    sketchStateVersion,
		Index:      idx,
		RepLabels:  append([]int(nil), s.sk.repLabels...),
		NextLabel:  s.sk.nextLabel,
		Reclusters: s.sk.reclusters,
	}
	return checkpoint.EncodeGob("core: sketch state", st)
}

// RestoreState implements checkpoint.Snapshotter (restore-after-Init,
// like the scheduler's own component).
func (c sketchCheckpoint) RestoreState(data []byte) error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sk == nil || s.sk.index == nil {
		return errors.New("core: sketch backend not initialized")
	}
	var st sketchComponentState
	if err := checkpoint.DecodeGob("core: sketch state", data, &st); err != nil {
		return err
	}
	if st.Version != sketchStateVersion {
		return fmt.Errorf("core: sketch state version %d, this build reads %d", st.Version, sketchStateVersion)
	}
	// Restore into a fresh index, so a refused payload leaves the
	// scheduler as it was, and refuse rep labels observeLocked could not
	// route on: one label per representative, none negative, and the next
	// label above all of them.
	idx := sketch.NewIndex(s.sk.index.NumClients(), s.sk.enc.width, s.sk.attach, s.sk.enc.metric())
	if err := idx.Restore(st.Index); err != nil {
		return err
	}
	if len(st.RepLabels) != idx.Len() {
		return fmt.Errorf("core: sketch state carries %d representative labels for %d representatives", len(st.RepLabels), idx.Len())
	}
	maxLabel := -1
	for r, l := range st.RepLabels {
		if l < 0 {
			return fmt.Errorf("core: sketch state labels representative %d with %d", r, l)
		}
		maxLabel = max(maxLabel, l)
	}
	if st.NextLabel <= maxLabel {
		return fmt.Errorf("core: sketch state's next label %d is not above its largest label %d", st.NextLabel, maxLabel)
	}
	s.sk.index = idx
	s.sk.repLabels = st.RepLabels
	s.sk.nextLabel = st.NextLabel
	s.sk.reclusters = st.Reclusters
	return nil
}

// ExtraComponents implements checkpoint.ComponentLister: on the sketch
// backend the scheduler contributes the representative index as its own
// snapshot component. Dense runs list nothing, so their snapshots stay
// byte-compatible with older builds.
func (s *Scheduler) ExtraComponents() []checkpoint.Component {
	if s.cfg.Backend != SketchBackend {
		return nil
	}
	return []checkpoint.Component{{Name: "sketch", S: sketchCheckpoint{s}}}
}

var _ checkpoint.ComponentLister = (*Scheduler)(nil)
