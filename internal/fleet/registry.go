package fleet

import (
	"math"
	"strconv"
	"sync"

	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// latencyAlpha is the EWMA smoothing factor for the rolling train
// latency; flakyAlpha smooths the per-selection outcome stream (1 for
// a cut or failed selection, 0 for a clean report) into the flakiness
// score.
const (
	latencyAlpha = 0.2
	flakyAlpha   = 0.2
)

// stalenessBuckets sizes the fleet-wide staleness histogram: one
// bucket per staleness value 0..14 plus an overflow bucket for >= 15.
const stalenessBuckets = 16

// clientHealth is the rolling per-client record. Fields are exported
// for gob (the registry checkpoints itself); the type stays package
// private.
type clientHealth struct {
	Selected    int
	Reported    int
	Cut         int
	Failed      int
	Unavailable int
	LastSeen    int // last round the client was selected; -1 = never
	LastLoss    float64
	Samples     int // cumulative samples contributed to aggregation

	LatEWMA float64
	LatInit bool
	Flaky   float64

	// Async-driver accounting: buffered updates contributed, updates
	// dropped past the staleness bound, and the running staleness sum
	// and maximum over the buffered ones. All stay zero under the sync
	// driver.
	Buffered     int
	StaleDropped int
	StaleSum     int
	StaleMax     int

	P50, P90, P99 stats.P2
}

// observeLatency folds one train-latency sample into the EWMA and the
// three quantile estimators.
func (c *clientHealth) observeLatency(v float64) {
	if !c.LatInit {
		c.LatEWMA = v
		c.LatInit = true
	} else {
		c.LatEWMA = latencyAlpha*v + (1-latencyAlpha)*c.LatEWMA
	}
	c.P50.Observe(v)
	c.P90.Observe(v)
	c.P99.Observe(v)
}

// observeOutcome folds one selection outcome (0 clean, 1 cut/failed)
// into the flakiness score. The score starts at 0 (no evidence of
// flakiness), so the EWMA needs no init flag.
func (c *clientHealth) observeOutcome(bad float64) {
	c.Flaky = flakyAlpha*bad + (1-flakyAlpha)*c.Flaky
}

// clusterHealth is the registry's per-cluster reading, refreshed each
// round from the ClusterSource. Exported fields for gob.
type clusterHealth struct {
	Members     []int
	Share       float64
	TargetShare float64
	Drift       float64
}

// Options configures a Registry; all fields are optional.
type Options struct {
	// Tracer receives one fleet-level and one per-cluster
	// KindFleetHealth event per observed round.
	Tracer telemetry.Tracer
	// Metrics, when set, gets the haccs_fleet_* gauge families.
	Metrics *telemetry.Registry
	// Source supplies cluster membership, θ targets and drift; nil
	// disables the per-cluster view.
	Source ClusterSource
}

// Registry is the fleet health store. All methods are safe for
// concurrent use (the /debug/fleet handler races the run loop) and
// safe on a nil receiver, which disables recording entirely.
type Registry struct {
	mu            sync.Mutex
	clients       []clientHealth
	rounds        int
	clock         float64
	totalSelected int // Σx over the roster's cumulative selection counts
	selectedSq    int // Σx², maintained with it: Jain's index needs no roster walk
	fairness      float64
	clusters      []clusterHealth

	// The per-cluster cumulative selection counts, maintained from each
	// round's Selected through clusterOf (client -> cluster, -1 outside
	// every cluster). Both are rebuilt from the roster only when the
	// source's Version differs from viewVersion, or on first sight
	// (viewKnown false: a new or just-restored registry).
	clusterOf   []int
	clusterSel  []int
	viewVersion uint64
	viewKnown   bool

	// Async-driver fleet view: rounds observed in async mode and the
	// fleet-wide staleness histogram over buffered updates (index is
	// the staleness in model versions, last bucket is the overflow).
	asyncRounds     int
	staleDropped    int
	stalenessCounts [stalenessBuckets]int

	tracer telemetry.Tracer
	source ClusterSource

	fairGauge *telemetry.Gauge
	shareVec  telemetry.GaugeVec
	targetVec telemetry.GaugeVec
	driftVec  telemetry.GaugeVec
	hasVecs   bool
	// gauges holds the resolved share/target/drift handles per cluster
	// index, grown when the cluster count grows.
	gauges []clusterGauges
}

type clusterGauges struct{ share, target, drift *telemetry.Gauge }

// NewRegistry builds a registry for a dense roster of n clients
// (IDs 0..n-1, matching the driver's proxy indexing).
func NewRegistry(n int, opts Options) *Registry {
	if n <= 0 {
		panic("fleet: registry needs a positive roster size")
	}
	r := &Registry{
		clients: make([]clientHealth, n),
		tracer:  opts.Tracer,
		source:  opts.Source,
	}
	for i := range r.clients {
		r.clients[i].LastSeen = -1
		r.clients[i].P50 = stats.NewP2(0.5)
		r.clients[i].P90 = stats.NewP2(0.9)
		r.clients[i].P99 = stats.NewP2(0.99)
	}
	if reg := opts.Metrics; reg != nil {
		r.fairGauge = reg.Gauge("haccs_fleet_fairness_jain",
			"Jain's fairness index over cumulative client selection counts.")
		r.shareVec = reg.GaugeVec("haccs_fleet_cluster_share",
			"Cluster's share of cumulative client selections.", "cluster")
		r.targetVec = reg.GaugeVec("haccs_fleet_cluster_target_share",
			"Scheduler's normalized theta target share for the cluster.", "cluster")
		r.driftVec = reg.GaugeVec("haccs_fleet_cluster_drift",
			"Hellinger drift of the cluster's label centroid since cluster time.", "cluster")
		r.hasVecs = true
	}
	return r
}

// Size returns the roster size (0 on a nil registry).
func (r *Registry) Size() int {
	if r == nil {
		return 0
	}
	return len(r.clients)
}

// ObserveRound folds one completed driver round into the registry.
// The driver calls it synchronously at the end of every round —
// including empty-selection rounds — so registry state is a
// deterministic function of the round history. No-op on nil.
func (r *Registry) ObserveRound(obs RoundObservation) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rounds++
	r.clock = obs.Clock

	for _, id := range obs.Selected {
		c := &r.clients[id]
		r.selectedSq += 2*c.Selected + 1
		c.Selected++
		c.LastSeen = obs.Round
	}
	r.totalSelected += len(obs.Selected)
	if obs.Async {
		r.asyncRounds++
	}
	for i := range obs.Reports {
		rep := &obs.Reports[i]
		c := &r.clients[rep.ClientID]
		c.Reported++
		c.LastLoss = rep.Loss
		c.Samples += rep.NumSamples
		lat := rep.VirtualSec
		if rep.Stats != nil {
			lat = rep.Stats.TrainWallSec
		}
		c.observeLatency(lat)
		c.observeOutcome(0)
		if obs.Async {
			c.Buffered++
			c.StaleSum += rep.Staleness
			if rep.Staleness > c.StaleMax {
				c.StaleMax = rep.Staleness
			}
			r.stalenessCounts[min(rep.Staleness, stalenessBuckets-1)]++
		}
	}
	for _, id := range obs.Cut {
		c := &r.clients[id]
		if obs.Async {
			c.StaleDropped++
			r.staleDropped++
		} else {
			c.Cut++
		}
		c.observeOutcome(1)
	}
	for _, id := range obs.Failed {
		c := &r.clients[id]
		c.Failed++
		c.observeOutcome(1)
	}
	for _, id := range obs.Unavailable {
		r.clients[id].Unavailable++
	}

	r.fairness = r.jain()
	r.refreshClustersLocked(obs.Selected)

	// Emit under the lock: the driver calls ObserveRound serially, so
	// this only ever delays a concurrent /debug/fleet read, and the
	// cluster slice stays safe from reuse across rounds.
	if r.fairGauge != nil {
		r.fairGauge.Set(r.fairness)
	}
	if r.tracer != nil {
		r.tracer.Emit(telemetry.FleetHealth(obs.Round, r.fairness, r.clock))
	}
	for r.hasVecs && len(r.gauges) < len(r.clusters) {
		label := strconv.Itoa(len(r.gauges))
		r.gauges = append(r.gauges, clusterGauges{
			r.shareVec.With(label), r.targetVec.With(label), r.driftVec.With(label)})
	}
	for i := range r.clusters {
		ch := &r.clusters[i]
		if r.hasVecs {
			g := &r.gauges[i]
			g.share.Set(ch.Share)
			g.target.Set(ch.TargetShare)
			g.drift.Set(ch.Drift)
		}
		if r.tracer != nil {
			r.tracer.Emit(telemetry.FleetClusterHealth(obs.Round, i, ch.Share, ch.TargetShare, ch.Drift))
		}
	}
	r.mu.Unlock()
}

// jain computes Jain's fairness index J = (Σx)² / (n·Σx²) over the
// roster's cumulative selection counts: 1 when selections are perfectly
// even, →1/n as they concentrate on one client, and 0 (by convention)
// before any selection. Σx is totalSelected and Σx² is maintained beside
// it; both are exact integers below 2⁵³, so the quotient is the float a
// walk over the roster would produce. Callers hold r.mu.
func (r *Registry) jain() float64 {
	if r.selectedSq == 0 {
		return 0
	}
	sum := float64(r.totalSelected)
	return sum * sum / (float64(len(r.clients)) * float64(r.selectedSq))
}

// refreshClustersLocked pulls the scheduler's current cluster view and
// brings each cluster's cumulative selection share up to date: from
// this round's selected clients when the membership is the one already
// seen, from the roster when it is new.
func (r *Registry) refreshClustersLocked(selected []int) {
	if r.source == nil {
		return
	}
	ct := r.source.FleetClusterState()
	if r.viewKnown && ct.Version == r.viewVersion {
		for _, id := range selected {
			if c := r.clusterOf[id]; c >= 0 {
				r.clusterSel[c]++
			}
		}
	} else {
		if r.clusterOf == nil {
			r.clusterOf = make([]int, len(r.clients))
		}
		for id := range r.clusterOf {
			r.clusterOf[id] = -1
		}
		r.clusterSel = append(r.clusterSel[:0], make([]int, len(ct.Members))...)
		for i, members := range ct.Members {
			for _, id := range members {
				r.clusterOf[id] = i
				r.clusterSel[i] += r.clients[id].Selected
			}
		}
		r.viewVersion, r.viewKnown = ct.Version, true
	}
	if cap(r.clusters) < len(ct.Members) {
		r.clusters = make([]clusterHealth, len(ct.Members))
	}
	r.clusters = r.clusters[:len(ct.Members)]
	for i, members := range ct.Members {
		share := 0.0
		if r.totalSelected > 0 {
			share = float64(r.clusterSel[i]) / float64(r.totalSelected)
		}
		r.clusters[i] = clusterHealth{
			Members:     members,
			Share:       share,
			TargetShare: ct.Theta[i],
			Drift:       ct.Drift[i],
		}
	}
}

// ClientHealth is the exported per-client reading in a State snapshot.
// Latency fields are in client-reported wall seconds on the flnet
// transport and simulated virtual seconds in the in-process engine.
type ClientHealth struct {
	ID           int     `json:"id"`
	Selected     int     `json:"selected"`
	Reported     int     `json:"reported"`
	StragglerCut int     `json:"straggler_cut"`
	Failed       int     `json:"failed"`
	Unavailable  int     `json:"unavailable"`
	LastSeen     int     `json:"last_seen_round"`
	LastLoss     float64 `json:"last_loss"`
	Samples      int     `json:"samples"`
	LatencyEWMA  float64 `json:"latency_ewma"`
	LatencyP50   float64 `json:"latency_p50"`
	LatencyP90   float64 `json:"latency_p90"`
	LatencyP99   float64 `json:"latency_p99"`
	Flakiness    float64 `json:"flakiness"`
	// Async-driver counters (zero and omitted on sync runs): buffered
	// updates contributed, updates dropped past the staleness bound,
	// and the mean/max staleness of the buffered ones.
	Buffered      int     `json:"buffered,omitempty"`
	StaleDropped  int     `json:"stale_dropped,omitempty"`
	MeanStaleness float64 `json:"mean_staleness,omitempty"`
	MaxStaleness  int     `json:"max_staleness,omitempty"`
}

// ClusterHealth is the exported per-cluster reading in a State
// snapshot. Members is the source's immutable list, shared, not copied:
// read it, do not write it.
type ClusterHealth struct {
	ID          int     `json:"id"`
	Members     []int   `json:"members"`
	Share       float64 `json:"share"`
	TargetShare float64 `json:"target_share"`
	Drift       float64 `json:"drift"`
}

// State is a point-in-time copy of the whole registry — what
// /debug/fleet serves. Safe on a nil registry (returns the zero
// State).
type State struct {
	Rounds        int             `json:"rounds"`
	Clock         float64         `json:"clock"`
	TotalSelected int             `json:"total_selected"`
	Fairness      float64         `json:"fairness"`
	Clients       []ClientHealth  `json:"clients"`
	Clusters      []ClusterHealth `json:"clusters,omitempty"`
	// Async is the fleet-wide async-driver view; nil on sync-only runs.
	Async *AsyncHealth `json:"async,omitempty"`
}

// AsyncHealth is the fleet-wide reading of the buffered asynchronous
// driver: how many observed rounds ran async, how many updates were
// dropped past the staleness bound, and the staleness histogram over
// every buffered update (index = staleness in model versions; the last
// bucket accumulates the overflow).
type AsyncHealth struct {
	Rounds          int   `json:"rounds"`
	StaleDropped    int   `json:"stale_dropped"`
	StalenessCounts []int `json:"staleness_counts"`
}

// State snapshots the registry under the lock.
func (r *Registry) State() State {
	if r == nil {
		return State{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := State{
		Rounds:        r.rounds,
		Clock:         r.clock,
		TotalSelected: r.totalSelected,
		Fairness:      r.fairness,
		Clients:       make([]ClientHealth, len(r.clients)),
	}
	for i := range r.clients {
		c := &r.clients[i]
		meanStale := 0.0
		if c.Buffered > 0 {
			meanStale = float64(c.StaleSum) / float64(c.Buffered)
		}
		st.Clients[i] = ClientHealth{
			ID:            i,
			Selected:      c.Selected,
			Reported:      c.Reported,
			StragglerCut:  c.Cut,
			Failed:        c.Failed,
			Unavailable:   c.Unavailable,
			LastSeen:      c.LastSeen,
			LastLoss:      c.LastLoss,
			Samples:       c.Samples,
			LatencyEWMA:   c.LatEWMA,
			LatencyP50:    c.P50.Value(),
			LatencyP90:    c.P90.Value(),
			LatencyP99:    c.P99.Value(),
			Flakiness:     c.Flaky,
			Buffered:      c.Buffered,
			StaleDropped:  c.StaleDropped,
			MeanStaleness: meanStale,
			MaxStaleness:  c.StaleMax,
		}
	}
	if r.asyncRounds > 0 {
		st.Async = &AsyncHealth{
			Rounds:          r.asyncRounds,
			StaleDropped:    r.staleDropped,
			StalenessCounts: append([]int(nil), r.stalenessCounts[:]...),
		}
	}
	if len(r.clusters) > 0 {
		st.Clusters = make([]ClusterHealth, len(r.clusters))
		for i := range r.clusters {
			ch := &r.clusters[i]
			st.Clusters[i] = ClusterHealth{
				ID:          i,
				Members:     ch.Members,
				Share:       ch.Share,
				TargetShare: ch.TargetShare,
				Drift:       ch.Drift,
			}
		}
	}
	return st
}

// ValidStats reports whether a client-reported stats block satisfies
// the wire contract: finite non-negative wall time, positive samples,
// finite loss, non-negative epochs. nil is valid (stats are optional).
func ValidStats(s *ClientStats) bool {
	if s == nil {
		return true
	}
	if math.IsNaN(s.TrainWallSec) || math.IsInf(s.TrainWallSec, 0) || s.TrainWallSec < 0 {
		return false
	}
	if s.Samples <= 0 {
		return false
	}
	if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
		return false
	}
	return s.Epochs >= 0
}
