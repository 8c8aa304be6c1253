package rounds

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"haccs/internal/fleet"
	"haccs/internal/simnet"
	"haccs/internal/telemetry"
)

// roundCore is the round lifecycle every runtime shares, embedded by
// Driver, AsyncDriver and HierDriver: begin (mask the unavailable,
// select, validate) → dispatch → the collect/aggregate policy (one
// syncRound body for both sync runtimes), crediting each aggregated
// update → finish (events, metrics, summary forwarding, loss feedback,
// fleet observation). It owns the state those steps read and write —
// latency table, dead mask, clock, global vector, model version — and
// the buffers they reuse, so a steady-state round allocates nothing
// beyond what the transport does. Invariant: every selected client ends
// its round as exactly one of reported / cut / failed.
type roundCore struct {
	cfg      Config
	strategy Strategy // nil only under an async hierarchical root
	// barrier marks a synchronous runtime: the round closes at a barrier,
	// so Cut means a straggler cut and the round emits Aggregated. Async
	// runtimes report Cut as stale drops and emit their own merge events.
	barrier bool

	latency []float64
	global  []float64
	clock   float64
	version int // aggregations applied so far
	dead    []bool
	met     *driverMetrics

	// Fan-out: the client endpoints (nil under a hierarchical root, which
	// dispatches to shards instead), the worker bound, and the per-slot
	// sink a successful reply is handed to.
	proxies     []Proxy
	parallelism int
	sink        func(slot int, res Result)
	slotFailed  []bool      // per selection slot: the transport died
	results     []Result    // per selection slot: the sync leg's update
	out         SyncOutcome // the sync round's outcome over the selection

	// Availability, kept in place: available[i] is false exactly when
	// client i is in this round's dropout list (dropped), dead, or busy
	// (async runtimes; busy is nil elsewhere). Each writer edits only the
	// entries it changes — begin swaps last round's dropout list for this
	// round's, fail and setBusy update their own clients — and a restore
	// recomputes the mask once (resetAvailable). down is this round's
	// dropped ∪ dead, ascending: the Unavailable event and the fleet
	// observation.
	available []bool
	busy      []bool
	dropped   []int
	spare     []int // the dropout model's next list is built here
	deadIDs   []int // the dead clients, ascending
	down      []int

	seen    []bool
	reps    []Result // this round's aggregated updates, in credit order
	taus    []int    // their staleness (0 in sync runtimes)
	repIDs  []int
	losses  []float64
	reports []fleet.ClientReport
}

// driverMetrics caches the driver's telemetry collectors (nil when
// metrics are off) so the hot loop never touches the registry maps.
type driverMetrics struct {
	rounds      *telemetry.Counter
	selected    *telemetry.Counter
	unavailable *telemetry.Counter
	stragglers  *telemetry.Counter
	failures    *telemetry.Counter
	trainWall   *telemetry.Histogram
	trainVirt   *telemetry.Histogram
	roundVirt   *telemetry.Histogram
	clock       *telemetry.Gauge
}

// TrainWallBuckets cover host-side local-training times: sub-ms MLP
// steps at Quick scale up to seconds for paper-scale CNNs.
var TrainWallBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// VirtualBuckets cover the simulator's per-round latencies (Table II
// profiles land in tens to hundreds of virtual seconds).
var VirtualBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

func newDriverMetrics(reg *telemetry.Registry) *driverMetrics {
	if reg == nil {
		return nil
	}
	return &driverMetrics{
		rounds:      reg.Counter("haccs_rounds_total", "Training rounds completed by the round driver."),
		selected:    reg.Counter("haccs_clients_selected_total", "Client training jobs dispatched."),
		unavailable: reg.Counter("haccs_clients_unavailable_total", "Per-round client dropout occurrences."),
		stragglers:  reg.Counter("haccs_clients_straggler_cut_total", "Client updates discarded at the round deadline."),
		failures:    reg.Counter("haccs_clients_failed_total", "Clients whose transport died mid-round (marked dead)."),
		trainWall:   reg.Histogram("haccs_client_train_seconds", "Host wall-clock duration of one local training job.", TrainWallBuckets),
		trainVirt:   reg.Histogram("haccs_client_virtual_latency_seconds", "Simulated per-client round latency.", VirtualBuckets),
		roundVirt:   reg.Histogram("haccs_round_virtual_seconds", "Simulated round makespan (slowest reporter, or the deadline).", VirtualBuckets),
		clock:       reg.Gauge("haccs_virtual_clock_seconds", "Virtual time elapsed in the run."),
	}
}

// newRoundCore builds the shared state over a dense roster with the
// given per-client latencies. initial is the global parameter vector;
// the core takes ownership.
func newRoundCore(cfg Config, strategy Strategy, latency, initial []float64, barrier bool) roundCore {
	if cfg.Dropout == nil {
		cfg.Dropout = simnet.NoDropout{}
	}
	n, k := len(latency), cfg.ClientsPerRound
	c := roundCore{
		cfg:        cfg,
		strategy:   strategy,
		barrier:    barrier,
		latency:    latency,
		global:     initial,
		dead:       make([]bool, n),
		met:        newDriverMetrics(cfg.Metrics),
		slotFailed: make([]bool, k),
		results:    make([]Result, k),
		available:  make([]bool, n),
		seen:       make([]bool, n),
		reps:       make([]Result, 0, k),
		taus:       make([]int, 0, k),
		repIDs:     make([]int, 0, k),
		losses:     make([]float64, 0, k),
	}
	for i := range c.available {
		c.available[i] = true
	}
	if cfg.Fleet != nil {
		c.reports = make([]fleet.ClientReport, 0, k)
	}
	return c
}

// newProxyCore is newRoundCore over a client transport: the roster and
// its latencies come from the transport's proxies. The embedding driver
// sets sink before its first round.
func newProxyCore(cfg Config, t Transport, strategy Strategy, initial []float64, barrier bool) roundCore {
	proxies := t.Proxies()
	if len(proxies) == 0 {
		panic("rounds: transport has no clients")
	}
	par := t.Parallelism()
	if par <= 0 {
		panic("rounds: transport parallelism must be positive")
	}
	latency := make([]float64, len(proxies))
	for i, p := range proxies {
		latency[i] = p.Latency()
	}
	c := newRoundCore(cfg, strategy, latency, initial, barrier)
	c.proxies, c.parallelism = proxies, par
	return c
}

// Global returns the driver-owned global parameter vector. Callers must
// treat it as read-only; it is overwritten by aggregation each round.
func (c *roundCore) Global() []float64 { return c.global }

// SetGlobal overwrites the driver-owned global parameter vector — the
// restore path of the model snapshot component. The dimension must
// match the vector the driver was constructed with.
func (c *roundCore) SetGlobal(params []float64) error {
	if len(params) != len(c.global) {
		return fmt.Errorf("rounds: SetGlobal with %d params, driver has %d", len(params), len(c.global))
	}
	copy(c.global, params)
	return nil
}

// Clock returns the virtual time elapsed so far in seconds.
func (c *roundCore) Clock() float64 { return c.clock }

// Latency returns a client's expected round latency in virtual seconds.
func (c *roundCore) Latency(id int) float64 { return c.latency[id] }

// Dead reports whether a client's transport failed in an earlier round;
// dead clients are excluded from availability forever.
func (c *roundCore) Dead(id int) bool { return c.dead[id] }

// restoreClock installs the clock and dead mask of a snapshot taken
// over the same roster, and recomputes availability from them; what
// names the payload in the mismatch error.
func (c *roundCore) restoreClock(what string, clock float64, dead []bool) error {
	if len(dead) != len(c.dead) {
		return fmt.Errorf("rounds: %s snapshot for %d clients, driver has %d", what, len(dead), len(c.dead))
	}
	c.clock = clock
	copy(c.dead, dead)
	c.resetAvailable()
	if c.met != nil {
		c.met.clock.Set(c.clock)
	}
	return nil
}

// resetAvailable rebuilds the dead list and the availability mask from
// the dead and busy masks and the standing dropout list — the one full
// pass, for a restore that replaced those masks wholesale.
func (c *roundCore) resetAvailable() {
	c.deadIDs = c.deadIDs[:0]
	for id, dead := range c.dead {
		if dead {
			c.deadIDs = append(c.deadIDs, id)
		}
		c.available[id] = !dead && (c.busy == nil || !c.busy[id])
	}
	for _, id := range c.dropped {
		c.available[id] = false
	}
}

// setBusy marks a client as training (hidden from selection without
// counting as down) or as back from training, and updates its
// availability. Only async runtimes, which own busy, call it.
func (c *roundCore) setBusy(id int, busy bool) {
	c.busy[id] = busy
	_, dropped := slices.BinarySearch(c.dropped, id)
	c.available[id] = !busy && !dropped && !c.dead[id]
}

// open starts a round: the root span every phase hangs under (the zero
// span when Config.Spans is nil) and the RoundStart event.
func (c *roundCore) open(round int) telemetry.Span {
	root := c.cfg.Spans.Root("round", round)
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(telemetry.RoundStart(round))
	}
	c.reps, c.taus = c.reps[:0], c.taus[:0]
	return root
}

// begin opens the round and picks who trains in it. Dropout and death
// make a client down (the Unavailable event and counter); busy clients
// are hidden from selection without counting as down. Availability is
// edited in place: last round's dropout downs come back (unless dead or
// busy), then this round's go down, so a round costs what the dropout
// lists hold, not the roster. The strategy then fills up to budget
// slots from the available mask; budget <= 0 skips selection
// altogether. Violations of the Strategy contract panic.
func (c *roundCore) begin(round int, budget int) (telemetry.Span, []int) {
	root := c.open(round)
	tracer := c.cfg.Tracer
	sp := root.Child("availability")
	next := c.cfg.Dropout.Down(round, len(c.dead), c.spare[:0])
	for _, id := range c.dropped {
		c.available[id] = !c.dead[id] && (c.busy == nil || !c.busy[id])
	}
	for _, id := range next {
		c.available[id] = false
	}
	c.dropped, c.spare = next, c.dropped
	c.down = union(c.down[:0], c.dropped, c.deadIDs)
	sp.End()
	if len(c.down) > 0 {
		if tracer != nil {
			tracer.Emit(telemetry.Unavailable(round, c.down))
		}
		if c.met != nil {
			c.met.unavailable.Add(float64(len(c.down)))
		}
	}
	if budget <= 0 {
		return root, nil
	}
	sp = root.Child("select")
	selected := c.strategy.Select(round, c.available, budget)
	sp.End()
	if tracer != nil {
		tracer.Emit(telemetry.Selection(round, append([]int(nil), selected...)))
	}
	c.validateSelection(selected, budget)
	return root, selected
}

// union appends to dst the ascending union of the ascending lists a and
// b and returns it.
func union(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// validateSelection enforces the Strategy contract: valid, available,
// distinct IDs within the budget. Violations are programming errors and
// panic, exactly as the pre-driver engine did. It leaves c.seen marking
// the selection.
func (c *roundCore) validateSelection(selected []int, budget int) {
	clear(c.seen)
	for _, id := range selected {
		if id < 0 || id >= len(c.seen) {
			panic(fmt.Sprintf("rounds: strategy selected invalid client %d", id))
		}
		if !c.available[id] {
			panic(fmt.Sprintf("rounds: strategy selected unavailable client %d", id))
		}
		if c.seen[id] {
			panic(fmt.Sprintf("rounds: strategy selected client %d twice", id))
		}
		c.seen[id] = true
	}
	if len(selected) > budget {
		panic("rounds: strategy selected more clients than the budget")
	}
}

// idle closes a round in which nothing could be selected: the server
// waits one virtual second — the scheduler's retry tick — and tries
// again next round.
func (c *roundCore) idle(round int, root telemetry.Span) Outcome {
	c.clock++
	return c.finish(round, root, Outcome{RoundVirtual: 1})
}

// fanOut trains the selected clients in parallel, each from the current
// global parameters, handing every reply to the sink and flagging the
// slots whose transport died in c.slotFailed. It spawns
// min(parallelism, jobs) goroutines — each pinned to one worker index
// so in-process transports can pin a persistent TrainContext — that
// pull job indices from an atomic counter; no semaphore churn and no
// per-job closure allocations. Results are independent of scheduling
// because transports derive all per-job randomness from the (client,
// round) pair and each selection slot owns its sink target. Each job
// gets a per-client "train" span parented under disp; its context rides
// to the proxy so network transports can propagate it on the wire.
func (c *roundCore) fanOut(round int, selected []int, disp telemetry.Span) {
	failed := c.slotFailed[:len(selected)]
	clear(failed)
	workers := min(c.parallelism, len(selected))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(selected) {
					return
				}
				id := selected[i]
				var start time.Time
				if c.cfg.Tracer != nil || c.met != nil {
					start = time.Now()
				}
				ts := disp.ChildClient("train", id)
				res, err := c.proxies[id].Train(round, w, i, c.global, ts.Context())
				ts.End()
				if err != nil {
					failed[i] = true
					continue
				}
				c.sink(i, res)
				if c.cfg.Tracer != nil || c.met != nil {
					wall := time.Since(start).Seconds()
					virt := c.latency[id]
					if c.cfg.Tracer != nil {
						c.cfg.Tracer.Emit(telemetry.ClientTrained(round, id, res.Loss, res.NumSamples, wall, virt))
					}
					if c.met != nil {
						c.met.trainWall.Observe(wall)
						c.met.trainVirt.Observe(virt)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// syncLeg is a sync runtime's part of syncRound. dispatch trains the
// selection, fills c.results and c.slotFailed, and returns the slots
// lost with their shard (nil if none can be); aggregate folds the
// credited reporters (c.reps, maybe none) in after the clock advanced.
type syncLeg interface {
	dispatch(round int, selected []int, span telemetry.Span) (lost []bool)
	aggregate(round int)
}

// syncRound is the one synchronous round (paper Fig. 2): select, push
// the model through the leg, resolve the selection by the sync outcome
// rule — stragglers cut at the deadline — credit the reporters, fold
// them in through the leg, advance the clock, finish. Driver and the
// sync HierDriver differ only in their leg.
func (c *roundCore) syncRound(round int, leg syncLeg) Outcome {
	root, selected := c.begin(round, c.cfg.ClientsPerRound)
	defer root.End()
	if len(selected) == 0 {
		return c.idle(round, root)
	}
	sp := root.Child("dispatch")
	lost := leg.dispatch(round, selected, sp)
	sp.End()

	sp = root.Child("collect")
	c.out.Resolve(selected, c.Latency, c.cfg.Deadline, c.slotFailed[:len(selected)], lost)
	for _, slot := range c.out.Reporters {
		c.credit(selected[slot], c.results[slot], 0)
	}
	sp.End()

	sp = root.Child("aggregate")
	aggregated := len(c.reps) > 0
	c.clock += c.out.RoundTime
	leg.aggregate(round)
	if aggregated {
		c.version++
	}
	sp.End()
	return c.finish(round, root, Outcome{
		Selected:     selected,
		Cut:          c.out.Cut,
		Failed:       c.out.Failed,
		RoundVirtual: c.out.RoundTime,
		Aggregated:   aggregated,
	})
}

// credit records one update the policy folded into the global model:
// client id reported r with the given model-version staleness. finish
// feeds the credited updates back to the strategy and the fleet.
func (c *roundCore) credit(id int, r Result, staleness int) {
	r.ClientID = id
	c.reps = append(c.reps, r)
	c.taus = append(c.taus, staleness)
}

// Reports returns the updates credited in the last round, in credit
// order — the order of the Outcome's Reporters. The slice, and the
// Summary and Stats it carries, are valid until the next round.
func (c *roundCore) Reports() []Result { return c.reps }

// fail records clients whose transport died: they are dead — excluded
// from availability from now on — and counted and traced as failed.
func (c *roundCore) fail(round int, ids []int) {
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		c.dead[id] = true
		c.available[id] = false
		if i, found := slices.BinarySearch(c.deadIDs, id); !found {
			c.deadIDs = slices.Insert(c.deadIDs, i, id)
		}
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(telemetry.ClientFailed(round, append([]int(nil), ids...)))
	}
	if c.met != nil {
		c.met.failures.Add(float64(len(ids)))
	}
}

// finish closes the round the policy described in out (Selected, Cut,
// Failed, RoundVirtual, Aggregated; the clock already advanced): the
// barrier events, the round metrics, then — under the "update" span —
// refreshed summaries and the credited reporters' losses go to the
// strategy, and the fleet registry gets its observation. It returns out
// with Reporters and Losses filled in credit order.
func (c *roundCore) finish(round int, root telemetry.Span, out Outcome) Outcome {
	tracer := c.cfg.Tracer
	if c.barrier {
		if len(out.Cut) > 0 {
			if tracer != nil {
				tracer.Emit(telemetry.StragglerCut(round, append([]int(nil), out.Cut...), c.cfg.Deadline))
			}
			if c.met != nil {
				c.met.stragglers.Add(float64(len(out.Cut)))
			}
		}
		c.fail(round, out.Failed)
		if out.Aggregated && tracer != nil {
			tracer.Emit(telemetry.Aggregated(round, append([]int(nil), out.Selected...), out.RoundVirtual, c.clock))
		}
	}
	if c.met != nil {
		c.met.rounds.Inc()
		c.met.selected.Add(float64(len(out.Selected)))
		c.met.roundVirt.Observe(out.RoundVirtual)
		c.met.clock.Set(c.clock)
	}
	repIDs, losses := c.repIDs[:0], c.losses[:0]
	for i := range c.reps {
		repIDs = append(repIDs, c.reps[i].ClientID)
		losses = append(losses, c.reps[i].Loss)
	}
	c.repIDs, c.losses = repIDs, losses

	sp := root.Child("update")
	if c.cfg.OnSummary != nil {
		for i := range c.reps {
			if s := c.reps[i].Summary; s != nil {
				c.cfg.OnSummary(c.reps[i].ClientID, s)
			}
		}
	}
	if c.strategy != nil {
		c.strategy.Update(round, repIDs, losses)
	}
	sp.End()

	if c.cfg.Fleet != nil {
		reports := c.reports[:0]
		for i := range c.reps {
			r := &c.reps[i]
			reports = append(reports, fleet.ClientReport{
				ClientID:   r.ClientID,
				Loss:       r.Loss,
				NumSamples: r.NumSamples,
				VirtualSec: c.latency[r.ClientID],
				Stats:      r.Stats,
				Staleness:  c.taus[i],
			})
		}
		c.reports = reports
		c.cfg.Fleet.ObserveRound(fleet.RoundObservation{
			Round:        round,
			Selected:     out.Selected,
			Reports:      reports,
			Cut:          out.Cut,
			Failed:       out.Failed,
			Unavailable:  c.down,
			RoundVirtual: out.RoundVirtual,
			Clock:        c.clock,
			Async:        !c.barrier,
		})
	}
	out.Reporters, out.Losses = repIDs, losses
	return out
}
