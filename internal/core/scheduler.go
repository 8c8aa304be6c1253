package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"haccs/internal/cluster"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/introspect"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// IntraClusterPolicy selects how a device is chosen inside a sampled
// cluster.
type IntraClusterPolicy int

const (
	// PickFastest always takes the minimum-latency available device —
	// Algorithm 1 as published.
	PickFastest IntraClusterPolicy = iota
	// PickWeighted samples devices with probability proportional to
	// 1/latency — the straggler-bias mitigation the paper sketches in
	// §V-D5 ("perform sampling within a cluster, rather than simply
	// using the current ordering based on latency"). Slower devices are
	// still disfavoured but are included regularly.
	PickWeighted
)

// Config parameterizes the HACCS scheduler.
type Config struct {
	// Kind selects the summary family used for clustering (names the
	// strategy: "haccs-P(y)" or "haccs-P(X|y)").
	Kind SummaryKind
	// Rho trades latency against loss in the cluster sampling weights
	// (eq. 7): high rho favours fast clusters, low rho favours
	// high-loss clusters. The value must lie in [0, 1].
	Rho float64
	// IntraCluster picks the device-within-cluster policy (default
	// PickFastest, the published algorithm).
	IntraCluster IntraClusterPolicy
	// Tracer receives the scheduler's decision events (cluster sampled
	// with its θ/τ/ACL decomposition, device picked, re-clustering);
	// nil disables tracing.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, receives the scheduler's gauges: one θ
	// gauge per cluster, the cluster count, and the clustering-cost
	// series recorded through internal/cluster's instrumented wrappers.
	Metrics *telemetry.Registry
	// Backend selects the clustering pipeline: DenseBackend (the
	// default) computes the full N×N pairwise Hellinger matrix;
	// SketchBackend compresses summaries into fixed-size sketches and
	// clusters K ≪ N representatives, scaling to 100k+ clients.
	Backend ClusterBackend
	// Sketch parameterizes the sketch backend; ignored for
	// DenseBackend. The zero value selects sensible defaults.
	Sketch SketchOptions
}

func (c *Config) fillDefaults() {
	if c.Rho < 0 || c.Rho > 1 {
		panic(fmt.Sprintf("core: rho %v outside [0,1]", c.Rho))
	}
}

// Algorithm 1's fixed parameters. minPts is the OPTICS density
// parameter, and initLoss seeds every client's loss before it first
// trains (≈ ln 10, an untrained model's cross-entropy over ten classes).
const (
	minPts   = 2
	initLoss = 2.3
)

// pxyMinSilhouette is the structure threshold of the silhouette-scored
// extraction for P(X|y) summaries and gradient summaries. P(y) distances
// are well spread and use cluster.DefaultMinSilhouette; P(X|y) distances
// live on a compressed scale — per-class Hellinger terms are averaged —
// so a lower threshold is needed, which also reproduces the paper's
// observation that P(X|y) "identified a few clusters even though the
// data was IID" (§V-D1).
const pxyMinSilhouette = 0.12

// minSilhouette returns the structure threshold for a summary kind.
func minSilhouette(k SummaryKind) float64 {
	if k == PXY {
		return pxyMinSilhouette
	}
	return cluster.DefaultMinSilhouette
}

// Scheduler is the HACCS client-selection strategy (Algorithm 1). It
// clusters clients by summary distance once at initialization, then each
// epoch samples clusters by weighted simple random sampling with
// replacement (Weighted-SRSWR) using the eq. 7 weights and picks the
// lowest-latency available device within each sampled cluster.
type Scheduler struct {
	cfg       Config
	summaries []Summary

	rng      *stats.RNG
	latency  []float64
	lastLoss []float64

	labels []int // client -> cluster id (singletonized noise)

	// The published cluster view (clusterstate.go keeps it in step with
	// labels). clusters maps cluster id -> member client IDs, ascending;
	// byLat holds the same members ordered by (latency, ID). A list, once
	// published, is never written again — a membership change builds new
	// lists for the affected clusters and bumps version — so the fleet
	// registry, the trace and the HTTP readers may hold them freely.
	clusters [][]int
	byLat    [][]int
	version  uint64
	latOrder []int // the roster in (latency, ID) order
	latRank  []int // client -> position in latOrder

	// sk holds the sketch backend's working state (nil on the dense
	// backend and before the first reclusterSketch).
	sk *sketchState

	// The roster's summary shape, fixed at construction: label bins for
	// P(y), class count for P(X|y), and the per-class histogram
	// resolution for P(X|y). UpdateSummaries holds refreshed summaries to
	// it.
	bins, featBins int

	// mass is the exact running label mass per cluster (fixed point, see
	// clusterstate.go); dirty flags the clusters whose sums or membership
	// changed in the current batch; massCap is the per-entry saturation.
	mass        [][]int64
	dirty       []bool
	massCap     int64
	centroidBuf []float64

	// baseline holds each cluster's label-distribution centroid captured
	// at cluster time — the reference point for the drift trigger and the
	// fleet drift gauge. Re-clustering (Init or UpdateSummaries) resets
	// it, so drift always means "change since the clustering currently in
	// force". drift caches driftOf per cluster in the view.
	baseline [][]float64
	drift    []float64

	// Per-Select scratch, reused across rounds: nothing here outlives the
	// call (lastParts and lastPicks keep their own storage).
	sel selectScratch
	// batch is UpdateSummaries' scratch, reused across calls.
	batch updateBatch

	// Resolved metric handles: the θ gauge per cluster index (grown when
	// the cluster count grows) and the rejected-summary counter.
	thetaGauges []*telemetry.Gauge
	rejected    *telemetry.Counter

	// Introspection snapshot: the scheduler's own loop (Init, Select,
	// Update, UpdateSummaries) runs single-threaded on the round driver,
	// but SelectionState is served from the telemetry HTTP goroutine
	// mid-run, so everything it reads is written and read under mu.
	mu        sync.Mutex
	lastRound int
	lastParts []clusterWeight
	lastPicks []introspect.Pick
	distance  introspect.DistanceSummary
	order     []int
	reach     []float64
}

// NewScheduler builds a HACCS scheduler from the clients' (possibly
// DP-noised) summaries. Clustering happens when the engine calls Init,
// once latencies are known.
func NewScheduler(cfg Config, summaries []Summary) *Scheduler {
	cfg.fillDefaults()
	if len(summaries) == 0 {
		panic("core: NewScheduler with no summaries")
	}
	for _, s := range summaries {
		if s.Kind != cfg.Kind {
			panic("core: summary kind mismatch with config")
		}
	}
	s := &Scheduler{cfg: cfg, summaries: summaries, lastRound: -1,
		massCap: math.MaxInt64 / 2 / int64(len(summaries))}
	if cfg.Kind == PY {
		s.bins = summaries[0].Label.Bins()
	} else {
		s.bins = len(summaries[0].Feature)
		s.featBins = featureBins(summaries)
	}
	s.centroidBuf = make([]float64, s.bins)
	if cfg.Metrics != nil {
		s.rejected = cfg.Metrics.Counter("haccs_summaries_rejected_total",
			"Refreshed summaries UpdateSummaries skipped for a wrong shape or a non-finite count.")
	}
	return s
}

// Name implements fl.Strategy.
func (s *Scheduler) Name() string { return "haccs-" + s.cfg.Kind.String() }

// Init implements fl.Strategy: it computes the distance matrix, runs
// OPTICS, and extracts the clusters.
func (s *Scheduler) Init(clients []fl.ClientInfo, rng *stats.RNG) {
	if len(clients) != len(s.summaries) {
		panic("core: client count does not match summaries")
	}
	s.rng = rng
	s.latency = make([]float64, len(clients))
	s.lastLoss = make([]float64, len(clients))
	for _, c := range clients {
		s.latency[c.ID] = c.Latency
		s.lastLoss[c.ID] = initLoss
	}
	s.rankByLatency()
	s.sel.picked = make([]bool, len(clients))
	s.recluster()
}

// recluster recomputes the cluster assignment from current summaries
// through whichever backend is configured.
func (s *Scheduler) recluster() {
	if s.cfg.Backend == SketchBackend {
		s.reclusterSketch(false)
		return
	}
	start := time.Now()
	m := DistanceMatrix(s.summaries)
	labels, next, res := clusterMatrix(s.cfg.Metrics, m, minSilhouette(s.cfg.Kind))
	singletonize(labels, next)
	s.mu.Lock()
	s.publishLocked(labels, nil, m, res) // the dense UpdateSummaries does not keep the sums
	n := len(s.clusters)
	s.mu.Unlock()
	s.reclustered(start, n)
}

// clusterMatrix is Algorithm 1's clustering step over a distance
// matrix: OPTICS at minPts, the silhouette-scored cut of its
// reachability plot (minSil is the score a cut must reach to count as
// structure), and the cluster-count gauge.
// It returns the labels, with noise still cluster.Noise, and one past
// the largest cluster label — where singletonize starts numbering.
func clusterMatrix(reg *telemetry.Registry, m *cluster.Matrix, minSil float64) (labels []int, next int, res *cluster.OPTICSResult) {
	res = cluster.InstrumentedOPTICS(reg, m, minPts, math.Inf(1))
	labels = res.ExtractBestSilhouette(m, minSil)
	cluster.ObserveClusterCount(reg, "optics", labels)
	for _, l := range labels {
		next = max(next, l+1)
	}
	return labels, next, res
}

// singletonize turns every noise label into a singleton cluster of its
// own, numbered from next up in index order, and returns the next free
// label. The paper values OPTICS precisely because it can refuse to
// force dissimilar clients into a cluster, but every device must remain
// schedulable, and a singleton preserves "each distinguishable
// distribution is represented".
func singletonize(labels []int, next int) int {
	for i, l := range labels {
		if l == cluster.Noise {
			labels[i] = next
			next++
		}
	}
	return next
}

// Cluster runs Algorithm 1's clustering on a summary set without a
// scheduler — the distance matrix, clusterMatrix at the kind's
// threshold, and singletonize — and returns each summary's cluster.
func Cluster(summaries []Summary) []int {
	labels, next, _ := clusterMatrix(nil, DistanceMatrix(summaries), minSilhouette(summaries[0].Kind))
	singletonize(labels, next)
	return labels
}

// publishLocked installs a clustering just computed: the labels, the
// membership and running sums (prev as rebuildLocked takes it), fresh
// drift baselines, and the distance summary, order and reachability of
// the OPTICS run behind it. Both backends call it inside the one locked
// section that publishes a re-clustering. Callers hold s.mu.
func (s *Scheduler) publishLocked(labels, prev []int, m *cluster.Matrix, res *cluster.OPTICSResult) {
	s.labels = labels
	s.rebuildLocked(prev)
	s.setBaselinesLocked(s.captureBaselines())
	s.distance = introspect.SummarizeDistances(m)
	s.order = append([]int(nil), res.Order...)
	s.reach = introspect.EncodeReachability(res.Reach)
}

// reclustered reports a published re-clustering of n clusters that
// began at start: the trace event and the cluster-count gauge.
func (s *Scheduler) reclustered(start time.Time, n int) {
	if s.cfg.Tracer != nil {
		// Round -1: clustering happens at Init and on summary updates,
		// outside any specific round.
		s.cfg.Tracer.Emit(telemetry.Reclustered(-1, n, time.Since(start).Seconds()))
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("haccs_clusters", "Schedulable clusters after noise singletonization.").Set(float64(n))
	}
}

// UpdateSummaries replaces one or more clients' summaries (clients
// joining, leaving, or reporting distribution shift) — the paper's
// real-time adaptation hook (§IV-C). The map keys are client IDs. The
// dense backend re-clusters from scratch; the sketch backend reassigns
// only the changed clients against the standing representatives and
// re-clusters only when label-centroid drift crosses the configured
// threshold.
//
// Refreshed summaries can come off the wire, so every entry is checked
// before anything is mutated. An unknown ID or the wrong kind is a
// programmer error and panics. An entry whose shape differs from the
// roster's (label bins; class count and per-class bins) or that carries
// a non-finite count is skipped — the client keeps its previous summary
// — and counted in haccs_summaries_rejected_total. The scheduler retains
// the accepted summaries; the caller must not modify them afterwards.
//
// UpdateSummaries is single-writer: like Init, Select and Update it runs
// on the round-driver loop only, and it reuses one batch buffer across
// calls.
func (s *Scheduler) UpdateSummaries(updated map[int]Summary) {
	b := &s.batch
	b.keys, b.got = b.keys[:0], b.got[:0]
	for id, sum := range updated {
		if id < 0 || id >= len(s.summaries) {
			panic(fmt.Sprintf("core: UpdateSummaries for unknown client %d", id))
		}
		if sum.Kind != s.cfg.Kind {
			panic("core: UpdateSummaries kind mismatch")
		}
		b.keys = append(b.keys, uint64(id)<<32|uint64(len(b.got)))
		b.got = append(b.got, sum)
	}
	// Ascending ID is the canonical observation order that keeps the
	// sketch path independent of map iteration. Checking the entries in
	// that order too reads their counts in the order the sketch path
	// then re-reads them.
	slices.Sort(b.keys)
	b.ids, b.sums = b.ids[:0], b.sums[:0]
	for _, k := range b.keys {
		if sum := b.got[uint32(k)]; s.wellFormed(sum) {
			b.ids = append(b.ids, int(k>>32))
			b.sums = append(b.sums, sum)
		}
	}
	ids, sums := b.ids, b.sums
	if n := len(updated) - len(ids); n > 0 && s.rejected != nil {
		s.rejected.Add(float64(n))
	}
	if s.latency != nil && s.cfg.Backend == SketchBackend && s.sk != nil && s.sk.index != nil {
		s.updateSketch(ids, sums)
		return
	}
	for i, id := range ids {
		s.summaries[id] = sums[i]
	}
	if s.latency != nil {
		s.recluster()
	}
}

// wellFormed reports whether a refreshed summary has the roster's shape
// and only finite counts.
func (s *Scheduler) wellFormed(sum Summary) bool {
	if sum.Kind == PY {
		return sum.Label != nil && len(sum.Label.Counts) == s.bins && stats.AllFinite(sum.Label.Counts)
	}
	if len(sum.Feature) != s.bins {
		return false
	}
	for _, h := range sum.Feature {
		if h != nil && (len(h.Counts) != s.featBins || !stats.AllFinite(h.Counts)) {
			return false
		}
	}
	return true
}

// updateBatch is UpdateSummaries' scratch, reused across calls. The
// entries arrive in map order: got holds them in that order, and each
// key holds a client ID in its high 32 bits and the entry's position in
// got in its low 32 (a roster of 2³² summaries would not fit in
// memory), so one integer sort of keys orders the batch by ID with no
// further map lookup. ids and sums are the accepted entries, aligned.
type updateBatch struct {
	keys      []uint64
	got, sums []Summary
	ids       []int
}

// ClusterLabels returns each client's cluster id.
func (s *Scheduler) ClusterLabels() []int { return append([]int(nil), s.labels...) }

// Clusters returns the member lists of every cluster.
func (s *Scheduler) Clusters() [][]int {
	out := make([][]int, len(s.clusters))
	for i, c := range s.clusters {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// NumClusters returns the number of clusters identified.
func (s *Scheduler) NumClusters() int { return len(s.clusters) }

// clusterWeight is the eq. 7 weight of one cluster with its
// decomposition, kept so the trace can explain every sampling draw.
type clusterWeight struct {
	Theta    float64 // ρ·τ + (1−ρ)·ACLShare, floored at 1e-9 when schedulable
	Tau      float64 // 1 − Latency_i / Latency_max
	ACL      float64 // average loss of the cluster's available members
	ACLShare float64 // ACL_i / Σ_j ACL_j
	Alive    bool    // cluster has at least one available member
}

// selectScratch is Select's reusable working storage, sized on demand.
type selectScratch struct {
	avgLat, avgLoss, weights []float64
	// remaining[i] counts available, unpicked members of cluster i;
	// cursor[i] is where PickFastest resumes in byLat[i] — everything
	// before it is unavailable or already picked this round — or −1 when
	// an available member's latency is NaN (see pickWithin).
	remaining, cursor []int
	picked            []bool // per client; cleared before Select returns
	candIDs           []int  // PickWeighted candidates
	candW             []float64
	sums              clusterSums
}

// clusterSums caches, per cluster, what clusterWeights reads besides the
// losses: the ascending list of available members, their latency sum
// and their count. Latencies are fixed after Init and membership only
// changes when version is bumped, so the cache holds while version and
// the availability mask are those it was built from; the mask is kept
// as a copy and compared byte for byte each Select. It is built only
// when a mask comes back unchanged, so a mask that changes every round
// (transient dropout) costs one compare and one copy on top of the
// member walk, not a rebuild. Losses move every round and are never
// cached.
type clusterSums struct {
	version uint64 // the membership version mask was seen at; 0 = none yet
	mask    []bool
	built   bool    // avail, lat and cnt hold for version and mask
	avail   [][]int // the member list itself when every member is available
	ids     []int   // backing array of the other avail lists
	lat     []float64
	cnt     []int
}

// hit reports whether s's membership and the mask available are those
// the cache last saw, building it on the first repeat. On a miss it
// remembers them and the caller walks the members.
func (c *clusterSums) hit(s *Scheduler, available []bool) bool {
	if c.version == s.version && bytes.Equal(boolBytes(c.mask), boolBytes(available)) {
		if !c.built {
			c.build(s, available)
		}
		return true
	}
	c.version, c.built = s.version, false
	c.mask = append(c.mask[:0], available...)
	return false
}

// build fills every cluster's latency sum and count with one walk over
// the members, then lists the available members of each cluster that
// has one down. An all-available roster allocates no list.
func (c *clusterSums) build(s *Scheduler, available []bool) {
	n := len(s.clusters)
	c.built = true
	c.avail = slices.Grow(c.avail[:0], n)[:n]
	c.lat = slices.Grow(c.lat[:0], n)[:n]
	c.cnt = slices.Grow(c.cnt[:0], n)[:n]
	listed := 0
	for i, members := range s.clusters {
		sumLat, cnt := 0.0, 0
		for _, id := range members {
			if available[id] {
				sumLat += s.latency[id]
				cnt++
			}
		}
		c.lat[i], c.cnt[i] = sumLat, cnt
		if cnt < len(members) {
			listed += cnt
		}
	}
	// Sized first so that no append below moves the lists already
	// carved out of it.
	ids := slices.Grow(c.ids[:0], listed)
	for i, members := range s.clusters {
		if c.cnt[i] == len(members) {
			c.avail[i] = members
			continue
		}
		start := len(ids)
		for _, id := range members {
			if available[id] {
				ids = append(ids, id)
			}
		}
		c.avail[i] = ids[start:len(ids):len(ids)]
	}
	c.ids = ids
}

// boolBytes views a bool slice as its bytes, for a memory compare.
func boolBytes(b []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// clusterWeights computes the eq. 7 sampling weight for every cluster
// over its currently available members:
//
//	θ_i = ρ·τ_i + (1−ρ)·ACL_i / Σ_j ACL_j
//	τ_i = 1 − Latency_i / Latency_max
//
// where Latency_i and ACL_i are the average latency and loss of the
// cluster's available members. Clusters with no available members get
// weight 0. Each cluster's available count goes into sel.remaining.
// Sums run in member (ascending ID) order — the order θ, and with it
// the RNG stream, has always been computed in. A round whose membership
// and mask did not change takes the latency sums and counts from
// sel.sums and walks only the available members' losses, in the same
// order, for the same bits; any other round walks every member. The
// returned weights are scratch; parts is the caller's to keep.
func (s *Scheduler) clusterWeights(available []bool) ([]float64, []clusterWeight) {
	n := len(s.clusters)
	sc := &s.sel
	if cap(sc.weights) < n {
		sc.avgLat, sc.avgLoss, sc.weights = make([]float64, n), make([]float64, n), make([]float64, n)
		sc.remaining, sc.cursor = make([]int, n), make([]int, n)
	}
	avgLat, avgLoss, weights := sc.avgLat[:n], sc.avgLoss[:n], sc.weights[:n]
	sc.remaining, sc.cursor = sc.remaining[:n], sc.cursor[:n]
	hit := sc.sums.hit(s, available)
	maxLat := 0.0
	totalLoss := 0.0
	for i, members := range s.clusters {
		sumLat, sumLoss, cnt := 0.0, 0.0, 0
		if hit {
			sumLat, cnt = sc.sums.lat[i], sc.sums.cnt[i]
			for _, id := range sc.sums.avail[i] {
				sumLoss += s.lastLoss[id]
			}
		} else {
			for _, id := range members {
				if available[id] {
					sumLat += s.latency[id]
					sumLoss += s.lastLoss[id]
					cnt++
				}
			}
		}
		sc.remaining[i], sc.cursor[i], weights[i] = cnt, 0, 0
		if cnt == 0 {
			continue
		}
		if math.IsNaN(sumLat) {
			sc.cursor[i] = -1
		}
		avgLat[i] = sumLat / float64(cnt)
		avgLoss[i] = sumLoss / float64(cnt)
		if avgLat[i] > maxLat {
			maxLat = avgLat[i]
		}
		totalLoss += avgLoss[i]
	}
	parts := make([]clusterWeight, n)
	for i := range s.clusters {
		if sc.remaining[i] == 0 {
			continue
		}
		tau := 0.0
		if maxLat > 0 {
			tau = 1 - avgLat[i]/maxLat
		}
		lossTerm := 0.0
		if totalLoss > 0 {
			lossTerm = avgLoss[i] / totalLoss
		}
		w := s.cfg.Rho*tau + (1-s.cfg.Rho)*lossTerm
		// A strictly zero weight would make the slowest cluster
		// unreachable at rho=1; keep a small floor so SRSWR can still
		// sample it (the paper's law-of-large-numbers argument in §V-D3
		// assumes weights are "not extremely small" but nonzero).
		if w <= 0 {
			w = 1e-9
		}
		weights[i] = w
		parts[i] = clusterWeight{Theta: w, Tau: tau, ACL: avgLoss[i], ACLShare: lossTerm, Alive: true}
	}
	return weights, parts
}

// publishWeights exports every cluster's θ (and the cluster count) as
// labelled gauges — the per-cluster view the /metrics acceptance check
// scrapes. Clusters without available members export θ = 0. Gauge
// handles are resolved once per cluster index, not once per round.
func (s *Scheduler) publishWeights(parts []clusterWeight) {
	if s.cfg.Metrics == nil {
		return
	}
	if len(s.thetaGauges) < len(parts) {
		thetas := s.cfg.Metrics.GaugeVec("haccs_cluster_theta", "Eq. 7 sampling weight of each cluster over its available members.", "cluster")
		for i := len(s.thetaGauges); i < len(parts); i++ {
			s.thetaGauges = append(s.thetaGauges, thetas.With(strconv.Itoa(i)))
		}
	}
	for i, p := range parts {
		theta := 0.0
		if p.Alive {
			theta = p.Theta
		}
		s.thetaGauges[i].Set(theta)
	}
}

// Select implements fl.Strategy (Algorithm 1): Weighted-SRSWR over
// clusters, then the minimum-latency available device within each
// sampled cluster, removing picked devices for the remainder of the
// round.
func (s *Scheduler) Select(epoch int, available []bool, k int) []int {
	weights, parts := s.clusterWeights(available)
	s.publishWeights(parts)
	reason := "fastest"
	if s.cfg.IntraCluster == PickWeighted {
		reason = "weighted"
	}
	if s.cfg.Tracer != nil {
		// One cluster_state record per cluster per Select: the
		// flight-recorder form of /debug/selection, so a finished run's
		// JSONL can replay why every round's draw looked the way it did.
		// The event shares the published (immutable) member list.
		for i, p := range parts {
			s.cfg.Tracer.Emit(telemetry.ClusterState(epoch, i, p.Theta, p.Tau, p.ACL, p.ACLShare, s.clusters[i]))
		}
	}
	remaining := s.sel.remaining
	anyRemaining := false
	for i := range weights {
		if remaining[i] > 0 && weights[i] > 0 {
			anyRemaining = true
			break
		}
	}
	// selected and picks outlive the call (the driver holds one, lastPicks
	// the other), so they are the round's two fresh allocations.
	var selected []int
	var picks []introspect.Pick
	if anyRemaining && k > 0 {
		selected = make([]int, 0, min(k, len(available)))
		picks = make([]introspect.Pick, 0, min(k, len(available)))
	}
	for len(selected) < k && anyRemaining {
		c := s.rng.WeightedChoice(weights)
		if remaining[c] == 0 {
			// Sampled an exhausted cluster (SRSWR samples with
			// replacement); drop it from the distribution and retry.
			weights[c] = 0
			anyRemaining = false
			for i := range weights {
				if weights[i] > 0 && remaining[i] > 0 {
					anyRemaining = true
					break
				}
			}
			continue
		}
		best := s.pickWithin(c, available)
		s.sel.picked[best] = true
		selected = append(selected, best)
		remaining[c]--
		picks = append(picks, introspect.Pick{
			Round:   epoch,
			Cluster: c,
			Client:  best,
			Latency: s.latency[best],
			Theta:   parts[c].Theta,
			Reason:  reason,
		})
		if s.cfg.Tracer != nil {
			p := parts[c]
			s.cfg.Tracer.Emit(telemetry.ClusterSampled(epoch, c, p.Theta, p.Tau, p.ACL, p.ACLShare))
			s.cfg.Tracer.Emit(telemetry.ClientPicked(epoch, c, best, s.latency[best], reason))
		}
	}
	for _, id := range selected {
		s.sel.picked[id] = false
	}
	s.mu.Lock()
	s.lastRound = epoch
	s.lastParts = parts
	s.lastPicks = picks
	s.mu.Unlock()
	return selected
}

// SelectionState implements introspect.SelectionInspector: a consistent
// snapshot of the live decision state — cluster membership with the
// most recent eq. 7 weight decomposition, the distance-matrix summary
// and OPTICS reachability behind the current clustering, and the last
// round's pick rationale. Safe to call concurrently with a running
// round (the /debug/selection handler does).
func (s *Scheduler) SelectionState() introspect.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := introspect.State{
		Strategy:     s.Name(),
		Backend:      s.cfg.Backend.String(),
		Sketch:       s.sketchSelectionStateLocked(),
		Round:        s.lastRound,
		Distance:     s.distance,
		Order:        append([]int(nil), s.order...),
		Reachability: append([]float64(nil), s.reach...),
		LastPicks:    append([]introspect.Pick(nil), s.lastPicks...),
		Clusters:     make([]introspect.ClusterState, len(s.clusters)),
	}
	for i, members := range s.clusters {
		cs := introspect.ClusterState{ID: i, Members: append([]int(nil), members...)}
		if i < len(s.lastParts) {
			p := s.lastParts[i]
			cs.Theta, cs.Tau, cs.ACL, cs.ACLShare, cs.Alive = p.Theta, p.Tau, p.ACL, p.ACLShare, p.Alive
		}
		st.Clusters[i] = cs
	}
	return st
}

// pickWithin chooses one available, unpicked device from cluster c
// according to the configured intra-cluster policy. The caller
// guarantees at least one candidate exists. PickFastest takes the first
// candidate of the cluster's (latency, ID) order — the minimum-latency
// device, lowest ID on a tie — resuming where the previous pick from
// this cluster stopped. A NaN latency (it can come off the wire, in a
// client's registration) has no place in that order: it compares false
// both ways, so the published algorithm's scan keeps whichever of a NaN
// and a number it met first. A cluster with an available NaN-latency
// member therefore takes that scan, in member order.
func (s *Scheduler) pickWithin(c int, available []bool) int {
	sc := &s.sel
	if s.cfg.IntraCluster == PickWeighted {
		ids, weights := sc.candIDs[:0], sc.candW[:0]
		for _, id := range s.clusters[c] {
			if available[id] && !sc.picked[id] {
				ids = append(ids, id)
				weights = append(weights, 1/math.Max(s.latency[id], 1e-9))
			}
		}
		sc.candIDs, sc.candW = ids, weights
		return ids[s.rng.WeightedChoice(weights)]
	}
	i := sc.cursor[c]
	if i < 0 {
		best := -1
		for _, id := range s.clusters[c] {
			if available[id] && !sc.picked[id] && (best == -1 || s.latency[id] < s.latency[best]) {
				best = id
			}
		}
		return best
	}
	order := s.byLat[c]
	for !available[order[i]] || sc.picked[order[i]] {
		i++
	}
	sc.cursor[c] = i + 1
	return order[i]
}

// Update implements fl.Strategy.
func (s *Scheduler) Update(epoch int, selected []int, losses []float64) {
	for i, id := range selected {
		s.lastLoss[id] = losses[i]
	}
}

// FleetClusterState implements fleet.ClusterSource: the cluster
// membership in force (the published immutable lists and their
// version), each cluster's normalized share of the eq. 7 sampling
// weight (the scheduler's intent, against which the fleet registry
// reports realized selection share), and each cluster's cached drift
// (driftOf). Before the first Select the θ targets fall back to
// uniform. O(clusters): nothing here walks the roster.
func (s *Scheduler) FleetClusterState() fleet.ClusterTargets {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.clusters)
	t := fleet.ClusterTargets{
		Members: s.clusters,
		Version: s.version,
		Theta:   make([]float64, n),
		Drift:   append([]float64(nil), s.drift...),
	}
	totalTheta := 0.0
	for i := range t.Theta {
		if i < len(s.lastParts) && s.lastParts[i].Alive {
			t.Theta[i] = s.lastParts[i].Theta
		}
		totalTheta += t.Theta[i]
	}
	if totalTheta > 0 {
		for i := range t.Theta {
			t.Theta[i] /= totalTheta
		}
	} else if n > 0 {
		for i := range t.Theta {
			t.Theta[i] = 1 / float64(n)
		}
	}
	return t
}

var _ fl.Strategy = (*Scheduler)(nil)
var _ introspect.SelectionInspector = (*Scheduler)(nil)
var _ fleet.ClusterSource = (*Scheduler)(nil)
