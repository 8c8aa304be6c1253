package rounds

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/telemetry"
)

// This file is the root half of hierarchical FedAvg: a HierDriver runs
// rounds over shard proxies instead of client proxies. Each shard owns
// a slice of the population (consistent hashing lives in
// internal/shard); the root selects globally, partitions the selection
// by owner, and folds the shards' unnormalized sample-weighted partial
// sums back into one global model. Because every shard reports
// Σ n_r·w_r (not a locally normalized average), the root's
// renormalization (Σ_s partial_s) / (Σ_s samples_s) computes exactly
// the quantity flat FedAvg computes — the grouping by shard is
// invisible wherever the arithmetic is exact, which the golden
// equivalence test pins over real TCP.

// ShardClient describes one client as owned by a shard: its global ID
// and its expected round latency in virtual seconds.
type ShardClient struct {
	ID      int
	Latency float64
}

// ShardCmd is one root→shard work order (one root scheduling cycle).
// internal/shard sends it over the wire as is, Params as the frame's
// raw vector trailer.
type ShardCmd struct {
	// Round is the root round/cycle index.
	Round int
	// Params is the global parameter snapshot the shard trains from.
	// In async mode it is nil between resyncs: the shard keeps training
	// from its local model until the root pushes a fresh base.
	Params []float64
	// Selected are the shard-owned clients the root selected this
	// round, in global selection order (sync mode; nil in async mode,
	// where shards select locally under their θ budget).
	Selected []int
	// Version is the root model version Params carries; shards echo it
	// back as ShardReport.BaseVersion so the root can compute staleness.
	Version int
}

// ShardReport is one shard's reply to a ShardCmd. internal/shard sends
// it over the wire as is, beside the shard/round echo the root
// validates, Partial as the frame's raw vector trailer.
type ShardReport struct {
	// Partial is the unnormalized sample-weighted partial aggregate:
	// sync Σ n_r·w_r over the shard's reporters, async the shard's
	// local model delta for the cycle. Nil/empty when the shard had
	// nothing to contribute.
	Partial []float64
	// Samples is the total NumSamples behind Partial.
	Samples int
	// Reporters carries per-reporter metadata (loss, samples, summary,
	// stats) in the shard's selection order; Params fields are nil —
	// only the partial sum crosses the tree, and the root refuses a
	// report whose reporter carries parameters.
	Reporters []Result
	// Cut are the shard-owned selected clients discarded at the
	// deadline (sync; the root validates them against its own latency
	// table).
	Cut []int
	// Failed are the shard-owned selected clients whose client↔shard
	// transport died mid-round; the root marks them dead.
	Failed []int
	// LocalClock is the shard driver's virtual clock after the cycle
	// (async mode; 0 in sync mode, where the root owns the clock).
	LocalClock float64
	// BaseVersion is the root model version of the shard's current
	// training base (async staleness bookkeeping).
	BaseVersion int
	// Sessions and Reconnects are the shard's live client-session count
	// and cumulative reconnect count, piggybacked so the root can
	// export merged fleet gauges without scraping the shards.
	Sessions   int
	Reconnects int
}

// ShardProxy is one shard coordinator as seen from the root.
// Implementations (internal/shard's TCP proxy, test fakes) must be
// safe for one Exec call at a time per proxy; the root calls the
// proxies in parallel but never overlaps calls to the same shard.
type ShardProxy interface {
	// ID returns the stable shard identifier (the consistent-hash ring
	// member name).
	ID() int
	// Clients returns the roster slice this shard owns. The root caches
	// it at construction.
	Clients() []ShardClient
	// Exec runs one root cycle on the shard and returns its report. An
	// error means the whole shard failed the round trip; its selected
	// clients are discarded for the round but stay alive. The report's
	// Partial may alias a transport-owned buffer: it is valid until the
	// next Exec on the same proxy, and the driver folds it in the round
	// it arrived. Implementations must not retain cmd.Params.
	Exec(cmd ShardCmd) (*ShardReport, error)
}

// HierConfig parameterizes the hierarchical root driver on top of the
// shared Config.
type HierConfig struct {
	// Mode selects sync barrier rounds (the root selects globally,
	// shards train their slices, one aggregation per round) or async
	// (shards run local buffered cycles; the root merges their flushes
	// staleness-weighted).
	Mode Mode
	// Async tunes the async-mode root merge: MaxStaleness bounds how
	// many root versions a shard base may lag before its flush is
	// dropped, StalenessExponent is the polynomial discount. BufferK is
	// ignored at the root (shards buffer locally).
	Async AsyncConfig
	// ResyncEvery is the async base-refresh cadence: the root pushes a
	// fresh global snapshot to every shard each ResyncEvery cycles
	// (0 defaults to 1 — every cycle). Larger values trade staleness
	// for bandwidth.
	ResyncEvery int
}

// ErrBadResyncEvery rejects a negative async resync cadence.
var ErrBadResyncEvery = errors.New("rounds: ResyncEvery must be >= 0")

func (h HierConfig) withDefaults() HierConfig {
	if h.Mode == "" {
		h.Mode = ModeSync
	}
	if h.ResyncEvery == 0 {
		h.ResyncEvery = 1
	}
	if h.Async.StalenessExponent == 0 {
		h.Async.StalenessExponent = DefaultStalenessExponent
	}
	return h
}

// ValidateHier checks the hierarchical configuration: the shared
// Config invariants, the sync/async mode split, and the resync
// cadence. NewHierDriver returns exactly this error.
func ValidateHier(cfg Config, hier HierConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h := hier.withDefaults()
	if h.Mode != ModeSync && h.Mode != ModeAsync {
		return fmt.Errorf("rounds: unknown hierarchical mode %q", hier.Mode)
	}
	if h.Mode == ModeAsync && cfg.Deadline != 0 {
		return fmt.Errorf("%w (got Deadline %v)", ErrDeadlineInAsync, cfg.Deadline)
	}
	if h.ResyncEvery < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadResyncEvery, hier.ResyncEvery)
	}
	if h.Async.MaxStaleness < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadMaxStaleness, hier.Async.MaxStaleness)
	}
	if h.Async.StalenessExponent < 0 {
		return fmt.Errorf("rounds: StalenessExponent must be >= 0 (got %v)", hier.Async.StalenessExponent)
	}
	return nil
}

// ShardStatus is the root's per-shard view after the last round,
// served at /debug/shards by internal/shard.
type ShardStatus struct {
	ID          int     `json:"id"`
	Clients     int     `json:"clients"`
	Sessions    int     `json:"sessions"`
	Reconnects  int     `json:"reconnects"`
	LocalClock  float64 `json:"local_clock"`
	BaseVersion int     `json:"base_version"`
	Failures    int     `json:"failures"`
}

// hierMetrics caches the shard-level collectors (nil when metrics are
// off); the shared round collectors live in driverMetrics.
type hierMetrics struct {
	shardRound      telemetry.HistogramVec
	shardClients    telemetry.GaugeVec
	shardSessions   telemetry.GaugeVec
	shardReconnects telemetry.GaugeVec
	shardFailures   telemetry.CounterVec
	rootAgg         *telemetry.Histogram
	merges          *telemetry.Counter
	stale           *telemetry.Counter
	netSessions     *telemetry.Gauge
	netReconnects   *telemetry.Counter
}

// ShardRoundBuckets cover the root's view of one shard round trip:
// loopback sub-millisecond up to multi-second WAN tails.
var ShardRoundBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHierMetrics(reg *telemetry.Registry) *hierMetrics {
	if reg == nil {
		return nil
	}
	return &hierMetrics{
		shardRound:      reg.HistogramVec("haccs_shard_round_seconds", "Root-observed wall time of one shard round trip.", "shard", ShardRoundBuckets),
		shardClients:    reg.GaugeVec("haccs_shard_clients", "Clients owned by each shard.", "shard"),
		shardSessions:   reg.GaugeVec("haccs_shard_sessions", "Live client sessions per shard (shard self-reported).", "shard"),
		shardReconnects: reg.GaugeVec("haccs_shard_reconnects", "Cumulative client reconnects per shard (shard self-reported).", "shard"),
		shardFailures:   reg.CounterVec("haccs_shard_failures_total", "Whole-shard round-trip failures observed by the root.", "shard"),
		rootAgg:         reg.Histogram("haccs_root_aggregate_seconds", "Wall time of the root's hierarchical aggregation step.", ShardRoundBuckets),
		merges:          reg.Counter("haccs_shard_merges_total", "Shard partials folded into the global model."),
		stale:           reg.Counter("haccs_shard_stale_total", "Async shard flushes dropped past the staleness bound."),
		netSessions:     reg.Gauge("haccs_net_sessions_active", "Live client sessions across all shards (merged view)."),
		netReconnects:   reg.Counter("haccs_net_reconnects_total", "Client reconnects across all shards (merged view)."),
	}
}

// HierDriver runs the root half of hierarchical FedAvg over shard
// proxies: the shared lifecycle (roundCore) with shards in place of
// clients — sync is the shared sync round over the shard leg (one
// command per owning shard, each report checked, the partials summed),
// async folds the shards' flushes staleness-weighted. It
// implements Runner, so the flat coordinator surface (checkpointing,
// the round loop, /debug handlers) works unchanged. Like the flat
// drivers it is not safe for concurrent use.
type HierDriver struct {
	roundCore
	hier   HierConfig
	shards []ShardProxy

	// Roster geometry, fixed at construction: owner maps a global
	// client ID to its shard slot, slotClients holds each shard's
	// client IDs in ascending order.
	owner       []int
	slotClients [][]int
	labels      []string

	cycle int // async resync cadence counter

	// Async bookkeeping: each shard's current base version and the
	// cumulative per-shard counters behind ShardStatus.
	base       []int
	sessions   []int
	reconnects []int
	lastClock  []float64
	failures   []int

	// Round-loop buffers, sized once and reused.
	want       SyncOutcome // the root's expectation of one shard's report
	slotLost   []bool      // per selection slot: the owning shard was lost
	perShard   [][]int     // each shard's slice of the selection
	shardSlots [][]int     // and the global selection slots of its entries
	repBuf     []*ShardReport
	errBuf     []error
	scratch    []float64

	hmet *hierMetrics
}

// NewHierDriver builds the root driver over the shards. The shards'
// client sets must partition a dense roster 0..n-1; initial is the
// global parameter vector (the driver takes ownership). In sync mode
// the strategy is the global selection strategy and must already be
// initialized over the full roster; in async mode it may be nil (the
// shards select locally) and is only fed reporter losses when present.
// Unlike NewDriver, invalid input returns an error: the roster arrives
// over the network, so it is not a programming-error panic.
func NewHierDriver(cfg Config, hier HierConfig, shards []ShardProxy, strategy Strategy, initial []float64) (*HierDriver, error) {
	if err := ValidateHier(cfg, hier); err != nil {
		return nil, err
	}
	hier = hier.withDefaults()
	if len(shards) == 0 {
		return nil, errors.New("rounds: hierarchical driver needs at least one shard")
	}
	if hier.Mode == ModeSync && strategy == nil {
		return nil, errors.New("rounds: sync hierarchical driver needs a selection strategy")
	}
	n := 0
	for _, s := range shards {
		n += len(s.Clients())
	}
	if n == 0 {
		return nil, errors.New("rounds: shards own no clients")
	}
	owner := make([]int, n)
	latency := make([]float64, n)
	for i := range owner {
		owner[i] = -1
	}
	slotClients := make([][]int, len(shards))
	labels := make([]string, len(shards))
	for slot, s := range shards {
		labels[slot] = strconv.Itoa(s.ID())
		ids := make([]int, 0, len(s.Clients()))
		for _, c := range s.Clients() {
			if c.ID < 0 || c.ID >= n {
				return nil, fmt.Errorf("rounds: shard %d owns client %d outside the dense roster [0,%d)", s.ID(), c.ID, n)
			}
			if owner[c.ID] != -1 {
				return nil, fmt.Errorf("rounds: client %d owned by shards %d and %d", c.ID, shards[owner[c.ID]].ID(), s.ID())
			}
			if c.Latency < 0 {
				return nil, fmt.Errorf("rounds: shard %d reports negative latency for client %d", s.ID(), c.ID)
			}
			owner[c.ID] = slot
			latency[c.ID] = c.Latency
			ids = append(ids, c.ID)
		}
		sort.Ints(ids)
		slotClients[slot] = ids
	}
	k := cfg.ClientsPerRound
	d := &HierDriver{
		roundCore:   newRoundCore(cfg, strategy, latency, initial, hier.Mode == ModeSync),
		hier:        hier,
		shards:      shards,
		owner:       owner,
		slotClients: slotClients,
		labels:      labels,
		base:        make([]int, len(shards)),
		sessions:    make([]int, len(shards)),
		reconnects:  make([]int, len(shards)),
		lastClock:   make([]float64, len(shards)),
		failures:    make([]int, len(shards)),
		slotLost:    make([]bool, k),
		perShard:    make([][]int, len(shards)),
		shardSlots:  make([][]int, len(shards)),
		repBuf:      make([]*ShardReport, len(shards)),
		errBuf:      make([]error, len(shards)),
		scratch:     make([]float64, len(initial)),
		hmet:        newHierMetrics(cfg.Metrics),
	}
	for i := range d.perShard {
		d.perShard[i], d.shardSlots[i] = make([]int, 0, k), make([]int, 0, k)
	}
	if d.hmet != nil {
		for slot := range shards {
			d.hmet.shardClients.With(labels[slot]).Set(float64(len(slotClients[slot])))
		}
	}
	return d, nil
}

// Version returns the root model version — aggregations applied so far.
func (d *HierDriver) Version() int { return d.version }

// ShardStatuses returns the per-shard view after the last completed
// round, in shard slot order. The slice is freshly allocated.
func (d *HierDriver) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(d.shards))
	for slot, s := range d.shards {
		out[slot] = ShardStatus{
			ID:          s.ID(),
			Clients:     len(d.slotClients[slot]),
			Sessions:    d.sessions[slot],
			Reconnects:  d.reconnects[slot],
			LocalClock:  d.lastClock[slot],
			BaseVersion: d.base[slot],
			Failures:    d.failures[slot],
		}
	}
	return out
}

// RunRound executes one root scheduling cycle: a sync barrier round
// (global selection partitioned by owner, parallel shard execution,
// one renormalized aggregation) or an async merge cycle (every shard
// runs one local buffered cycle; the root folds the flushes
// staleness-weighted). Implements Runner.
func (d *HierDriver) RunRound(round int) Outcome {
	if d.hier.Mode == ModeAsync {
		return d.runAsync(round)
	}
	return d.syncRound(round, d)
}

// dispatch is the shard leg's: one ShardCmd per owning shard, carrying
// its slice of the selection in selection order. A checked report's
// failed flags and reporters land in their global selection slots; a
// shard whose round trip failed or whose report was refused is lost,
// and its slots with it.
func (d *HierDriver) dispatch(round int, selected []int, _ telemetry.Span) []bool {
	for s := range d.perShard {
		d.perShard[s], d.shardSlots[s] = d.perShard[s][:0], d.shardSlots[s][:0]
	}
	for i, id := range selected {
		s := d.owner[id]
		d.perShard[s] = append(d.perShard[s], id)
		d.shardSlots[s] = append(d.shardSlots[s], i)
	}
	d.exec(func(s int) ShardCmd {
		return ShardCmd{Round: round, Params: d.global, Selected: d.perShard[s], Version: d.version}
	}, func(s int) bool { return len(d.perShard[s]) > 0 })

	failed, lost := d.slotFailed[:len(selected)], d.slotLost[:len(selected)]
	for s, slots := range d.shardSlots {
		if len(slots) == 0 {
			continue
		}
		if d.errBuf[s] == nil {
			d.errBuf[s] = d.checkSyncReport(s, d.repBuf[s])
		}
		if d.errBuf[s] != nil {
			d.shardLost(round, s, d.perShard[s])
			for _, g := range slots {
				lost[g] = true
			}
			continue
		}
		for j, g := range slots {
			lost[g], failed[g] = false, d.seen[j]
			// As in fanOut: every client whose training returned.
			if !failed[g] && d.met != nil {
				d.met.trainVirt.Observe(d.latency[selected[g]])
			}
		}
		for i, j := range d.want.Reporters {
			d.results[slots[j]] = d.repBuf[s].Reporters[i]
		}
	}
	return lost
}

// aggregate is the shard leg's: sum the live shards' unnormalized
// partials and renormalize once by the total sample count — flat
// FedAvg, grouped by shard. A checked report's weight is its credited
// reporters' sum, so the total is theirs.
func (d *HierDriver) aggregate(round int) {
	start := time.Now()
	merged, samples := 0, 0
	if len(d.reps) > 0 {
		clear(d.scratch)
		for s, rep := range d.repBuf {
			if d.errBuf[s] != nil || rep == nil || rep.Samples == 0 {
				continue
			}
			for i, v := range rep.Partial {
				d.scratch[i] += v
			}
			merged++
			samples += rep.Samples
		}
		inv := float64(samples)
		for i := range d.global {
			d.global[i] = d.scratch[i] / inv
		}
	}
	d.recordMerge(round, merged, samples, start)
}

// shardLost records, for both modes, a shard lost for the round — its
// round trip failed or the root refused its report — and the selected
// clients lost with it (nil in async mode): /debug/shards, /metrics, trace.
func (d *HierDriver) shardLost(round, slot int, clients []int) {
	d.failures[slot]++
	if d.hmet != nil {
		d.hmet.shardFailures.With(d.labels[slot]).Inc()
	}
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Emit(telemetry.ShardFailed(round, d.shards[slot].ID(), append([]int(nil), clients...)))
	}
}

// recordMerge records, for both modes, one root merge begun at start —
// shards partials or flushes (none in an empty round) behind samples
// samples — in /metrics and, once the clock has advanced, the trace.
func (d *HierDriver) recordMerge(round, shards, samples int, start time.Time) {
	wall := time.Since(start).Seconds()
	if d.hmet != nil {
		d.hmet.rootAgg.Observe(wall)
		d.hmet.merges.Add(float64(shards))
	}
	if shards > 0 && d.cfg.Tracer != nil {
		d.cfg.Tracer.Emit(telemetry.ShardMerge(round, shards, samples, wall, d.clock))
	}
}

// checkSyncReport validates one shard's sync report against the root's
// independent view: its failed clients must be selected ones (in
// selection order, like every list a shard reports), its cut and
// reporter sequences must be exactly what the outcome rule gives for
// the shard's slice of the selection, and the partial must be
// dimensioned and weighted consistently. A violation is treated as a
// whole-shard failure for the round (the transport layer additionally
// drops the session).
func (d *HierDriver) checkSyncReport(slot int, rep *ShardReport) error {
	shard := d.shards[slot].ID()
	if rep == nil {
		return fmt.Errorf("rounds: shard %d returned no report", shard)
	}
	sel := d.perShard[slot]
	failed := d.seen[:len(sel)] // free once the selection is validated
	next := 0
	for i, id := range sel {
		failed[i] = next < len(rep.Failed) && rep.Failed[next] == id
		if failed[i] {
			next++
		}
	}
	if next < len(rep.Failed) {
		return fmt.Errorf("rounds: shard %d reported client %d as failed, unselected or out of selection order", shard, rep.Failed[next])
	}
	d.want.Resolve(sel, d.Latency, d.cfg.Deadline, failed, nil)
	if !slices.Equal(rep.Cut, d.want.Cut) {
		return fmt.Errorf("rounds: shard %d cut %v, root expected %v", shard, rep.Cut, d.want.Cut)
	}
	if len(rep.Reporters) != len(d.want.Reporters) {
		return fmt.Errorf("rounds: shard %d reported %d reporters, root expected %d", shard, len(rep.Reporters), len(d.want.Reporters))
	}
	for i, s := range d.want.Reporters {
		if id := rep.Reporters[i].ClientID; id != sel[s] {
			return fmt.Errorf("rounds: shard %d reporter order disagrees at position %d (%d vs %d)", shard, i, id, sel[s])
		}
	}
	return d.checkPartial(shard, rep)
}

// checkPartial checks what a sync and an async report share: every
// reporter carries a positive sample count, and the partial carries
// their sum as its weight and, when it has any, the model's dimension.
func (d *HierDriver) checkPartial(shard int, rep *ShardReport) error {
	samples := 0
	for i := range rep.Reporters {
		r := &rep.Reporters[i]
		if r.NumSamples <= 0 {
			return fmt.Errorf("rounds: shard %d reporter %d has non-positive sample count", shard, r.ClientID)
		}
		samples += r.NumSamples
	}
	if rep.Samples != samples {
		return fmt.Errorf("rounds: shard %d partial weight %d, reporters sum to %d", shard, rep.Samples, samples)
	}
	if samples > 0 && len(rep.Partial) != len(d.global) {
		return fmt.Errorf("rounds: shard %d partial dimension %d, model has %d", shard, len(rep.Partial), len(d.global))
	}
	return nil
}

// runAsync executes one async root cycle: every shard runs one local
// buffered cycle (from a freshly pushed base on resync cycles) and the
// root folds the returned deltas staleness-weighted, in deterministic
// (LocalClock, shard ID) order.
func (d *HierDriver) runAsync(round int) Outcome {
	root := d.open(round)
	defer root.End()
	tracer := d.cfg.Tracer
	resync := d.cycle%d.hier.ResyncEvery == 0
	d.cycle++
	sp := root.Child("dispatch")
	d.exec(func(slot int) ShardCmd {
		cmd := ShardCmd{Round: round, Version: d.version}
		if resync {
			cmd.Params = d.global
		}
		return cmd
	}, func(slot int) bool { return true })
	sp.End()

	type flush struct {
		slot int
		rep  *ShardReport
		tau  int
	}
	flushes := make([]flush, 0, len(d.shards))
	var failed, cut []int
	for slot, rep := range d.repBuf {
		if d.errBuf[slot] == nil {
			d.errBuf[slot] = d.checkAsyncReport(slot, rep)
		}
		if d.errBuf[slot] != nil {
			d.shardLost(round, slot, nil)
			continue
		}
		if resync {
			d.base[slot] = d.version
		}
		d.lastClock[slot] = rep.LocalClock
		tau := max(d.version-rep.BaseVersion, 0)
		failed = append(failed, rep.Failed...)
		cut = append(cut, rep.Cut...)
		if len(rep.Reporters) == 0 {
			continue
		}
		if d.hier.Async.MaxStaleness > 0 && tau > d.hier.Async.MaxStaleness {
			if d.hmet != nil {
				d.hmet.stale.Inc()
			}
			continue
		}
		flushes = append(flushes, flush{slot: slot, rep: rep, tau: tau})
	}
	d.fail(round, failed)
	sort.Slice(flushes, func(i, j int) bool {
		if flushes[i].rep.LocalClock != flushes[j].rep.LocalClock {
			return flushes[i].rep.LocalClock < flushes[j].rep.LocalClock
		}
		return d.shards[flushes[i].slot].ID() < d.shards[flushes[j].slot].ID()
	})

	sp = root.Child("aggregate")
	aggStart := time.Now()
	aggregated := len(flushes) > 0
	samples := 0
	if aggregated {
		total := 0.0
		for _, f := range flushes {
			total += float64(f.rep.Samples) / math.Pow(1+float64(f.tau), d.hier.Async.StalenessExponent)
		}
		for _, f := range flushes {
			w := float64(f.rep.Samples) / math.Pow(1+float64(f.tau), d.hier.Async.StalenessExponent)
			c := w / total
			for i, v := range f.rep.Partial {
				d.global[i] += c * v
			}
			samples += f.rep.Samples
			for _, r := range f.rep.Reporters {
				d.credit(r.ClientID, r, f.tau)
			}
			if tracer != nil {
				ids := make([]int, len(f.rep.Reporters))
				for i := range f.rep.Reporters {
					ids[i] = f.rep.Reporters[i].ClientID
				}
				tracer.Emit(telemetry.ShardReport(round, d.shards[f.slot].ID(), ids, f.rep.Samples, 0, f.tau, f.rep.LocalClock))
			}
		}
		d.version++
	}

	// The root clock tracks the frontier of shard-local virtual time;
	// an empty cycle idles one virtual second like the flat drivers.
	prev := d.clock
	for slot := range d.shards {
		if d.lastClock[slot] > d.clock {
			d.clock = d.lastClock[slot]
		}
	}
	if d.clock == prev && !aggregated {
		d.clock++
	}
	d.recordMerge(round, len(flushes), samples, aggStart)
	sp.End()
	return d.finish(round, root, Outcome{
		Cut:          cut,
		Failed:       failed,
		RoundVirtual: d.clock - prev,
		Aggregated:   aggregated,
	})
}

// checkAsyncReport validates one shard's async report before any of
// it is applied: its local clock must be finite and non-negative (the
// root clock rides it), every client it names — failed, stale-dropped
// or reporting — must be a roster client this shard owns (the IDs
// index the dead mask, the latency table, the strategy and the fleet
// registry), and the partial must be weighted and dimensioned
// consistently. A violation loses the shard for the cycle.
func (d *HierDriver) checkAsyncReport(slot int, rep *ShardReport) error {
	shard := d.shards[slot].ID()
	if rep == nil {
		return fmt.Errorf("rounds: shard %d returned no report", shard)
	}
	if c := rep.LocalClock; c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("rounds: shard %d local clock %v", shard, c)
	}
	for _, ids := range [2][]int{rep.Failed, rep.Cut} {
		for _, id := range ids {
			if id < 0 || id >= len(d.owner) || d.owner[id] != slot {
				return fmt.Errorf("rounds: shard %d names client %d, which it does not own", shard, id)
			}
		}
	}
	for i := range rep.Reporters {
		if id := rep.Reporters[i].ClientID; id < 0 || id >= len(d.owner) || d.owner[id] != slot {
			return fmt.Errorf("rounds: shard %d credits client %d, which it does not own", shard, id)
		}
	}
	return d.checkPartial(shard, rep)
}

// exec fans one command out to every participating shard in parallel,
// filling d.repBuf/d.errBuf by slot. Shard-level telemetry (round-trip
// histogram, session/reconnect gauges) is recorded here.
func (d *HierDriver) exec(cmd func(slot int) ShardCmd, participates func(slot int) bool) {
	for slot := range d.shards {
		d.repBuf[slot] = nil
		d.errBuf[slot] = nil
	}
	var wg sync.WaitGroup
	for slot := range d.shards {
		if !participates(slot) {
			continue
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			start := time.Now()
			rep, err := d.shards[slot].Exec(cmd(slot))
			if d.hmet != nil {
				d.hmet.shardRound.With(d.labels[slot]).Observe(time.Since(start).Seconds())
			}
			d.repBuf[slot], d.errBuf[slot] = rep, err
		}(slot)
	}
	wg.Wait()
	live := 0
	for slot := range d.shards {
		if rep := d.repBuf[slot]; rep != nil {
			if d.hmet != nil {
				if rep.Reconnects > d.reconnects[slot] {
					d.hmet.netReconnects.Add(float64(rep.Reconnects - d.reconnects[slot]))
				}
				d.hmet.shardSessions.With(d.labels[slot]).Set(float64(rep.Sessions))
				d.hmet.shardReconnects.With(d.labels[slot]).Set(float64(rep.Reconnects))
			}
			d.sessions[slot] = rep.Sessions
			d.reconnects[slot] = rep.Reconnects
		}
		live += d.sessions[slot]
	}
	if d.hmet != nil {
		d.hmet.netSessions.Set(float64(live))
	}
}

// hierStateVersion versions the hierarchical driver's gob payload.
const hierStateVersion = 1

// hierState is the root driver's serialized mutable state beyond the
// global model: the clock, the dead mask, the model version and the
// async resync bookkeeping. Shard-local state (async buffers in
// flight) is deliberately not captured — on restore the shards rebuild
// from the restored global base, losing at most one un-merged local
// buffer per shard (the documented bounded-loss semantics; sync shards
// are stateless between rounds, so the sync path restores exactly).
type hierState struct {
	Version      int
	Clock        float64
	Dead         []bool
	ModelVersion int
	Cycle        int
	Base         []int
	// Per-shard cumulative counters as of the snapshot. Restoring them
	// re-baselines the merged reconnect counter, so a restored root does
	// not re-count client reconnects the crashed root already counted,
	// and keeps /debug/shards continuous across a restore.
	Sessions   []int
	Reconnects []int
	LastClock  []float64
	Failures   []int
}

// SnapshotState implements checkpoint.Snapshotter.
func (d *HierDriver) SnapshotState() ([]byte, error) {
	return checkpoint.EncodeGob("rounds: hierarchical driver state", hierState{
		Version:      hierStateVersion,
		Clock:        d.clock,
		Dead:         append([]bool(nil), d.dead...),
		ModelVersion: d.version,
		Cycle:        d.cycle,
		Base:         append([]int(nil), d.base...),
		Sessions:     append([]int(nil), d.sessions...),
		Reconnects:   append([]int(nil), d.reconnects...),
		LastClock:    append([]float64(nil), d.lastClock...),
		Failures:     append([]int(nil), d.failures...),
	})
}

// RestoreState implements checkpoint.Snapshotter. The driver must have
// been constructed over the same roster partition as the run that
// produced the snapshot.
func (d *HierDriver) RestoreState(data []byte) error {
	var st hierState
	if err := checkpoint.DecodeGob("rounds: hierarchical driver state", data, &st); err != nil {
		return err
	}
	if st.Version != hierStateVersion {
		return fmt.Errorf("rounds: hierarchical driver state version %d, this build reads %d", st.Version, hierStateVersion)
	}
	if len(st.Base) != len(d.base) {
		return fmt.Errorf("rounds: hierarchical snapshot for %d shards, driver has %d", len(st.Base), len(d.base))
	}
	if err := d.restoreClock("hierarchical", st.Clock, st.Dead); err != nil {
		return err
	}
	d.version = st.ModelVersion
	d.cycle = st.Cycle
	copy(d.base, st.Base)
	if len(st.Sessions) == len(d.sessions) {
		copy(d.sessions, st.Sessions)
	}
	if len(st.Reconnects) == len(d.reconnects) {
		copy(d.reconnects, st.Reconnects)
	}
	if len(st.LastClock) == len(d.lastClock) {
		copy(d.lastClock, st.LastClock)
	}
	if len(st.Failures) == len(d.failures) {
		copy(d.failures, st.Failures)
	}
	return nil
}

var _ Runner = (*HierDriver)(nil)
