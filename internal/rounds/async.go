package rounds

import (
	"container/heap"
	"math"
	"sort"
	"sync"

	"haccs/internal/fleet"
	"haccs/internal/introspect"
	"haccs/internal/telemetry"
)

// AsyncDriver is the FedBuff-style buffered asynchronous round
// runtime. Selected clients train continuously against the virtual
// clock: every scheduling cycle (one RunRound call) first refills the
// free concurrency slots through the strategy, then pops virtual
// finish events off a (finishTime, dispatchSeq) min-heap until the
// aggregation buffer holds BufferK updates and flushes them into the
// global model with polynomial staleness discounting. Clients whose
// events have not fired simply keep training across cycles — a slow
// client never stalls the clock the way a sync barrier round does.
//
// Determinism: finish events are ordered by virtual finish time with
// the dispatch sequence number as the tie-break, every training job
// derives its randomness from the (client, dispatchRound) pair, and
// client updates are folded in buffer order — so a fixed seed yields a
// bit-identical trajectory regardless of host scheduling, exactly like
// the sync driver. Like the sync driver it is not safe for concurrent
// use; cycles run one at a time.
type AsyncDriver struct {
	roundCore
	async AsyncConfig

	seq uint64

	queue  eventQueue
	buffer []*asyncEntry
	free   []*asyncEntry

	// Cycle-loop buffers, sized once and reused across cycles.
	cut     []int
	failed  []int
	batch   []*asyncEntry
	weights []float64

	// Cumulative counters behind the introspection state.
	bufferedTotal     int
	staleDroppedTotal int
	stalenessCounts   []int

	amet *asyncMetrics

	// insp is the snapshot served at /debug/selection, refreshed at
	// the end of every cycle under inspMu (the HTTP handler races the
	// run by design). Its slices are insp-owned copies.
	inspMu sync.Mutex
	insp   introspect.AsyncState
}

// asyncEntry is one dispatched training job: trained eagerly at
// dispatch time (the result depends only on the parameter snapshot and
// the (client, dispatchRound) random stream, so eager training cannot
// leak scheduling order into the trajectory), carrying its model delta
// until its virtual finish event fires.
type asyncEntry struct {
	client        int
	dispatchRound int
	version       int     // model version at dispatch
	finish        float64 // virtual finish time
	seq           uint64  // dispatch order tie-break
	staleness     int     // set when the finish event pops

	delta      []float64
	loss       float64
	numSamples int
	summary    []float64
	stats      *fleet.ClientStats
	statsVal   fleet.ClientStats
}

// fill captures a training result as a delta against the dispatch-time
// global snapshot, copying the reply's summary and stats so the entry
// survives transport buffer reuse across cycles.
func (e *asyncEntry) fill(base []float64, res Result) {
	if len(res.Params) != len(base) {
		panic("rounds: async update parameter dimension mismatch")
	}
	e.loss = res.Loss
	e.numSamples = res.NumSamples
	if cap(e.delta) < len(base) {
		e.delta = make([]float64, len(base))
	}
	e.delta = e.delta[:len(base)]
	for j, v := range res.Params {
		e.delta[j] = v - base[j]
	}
	if res.Summary != nil {
		e.summary = append(e.summary[:0], res.Summary...)
	} else {
		e.summary = nil
	}
	if res.Stats != nil {
		e.statsVal = *res.Stats
		e.stats = &e.statsVal
	} else {
		e.stats = nil
	}
}

// eventQueue is the virtual-time event min-heap: earliest finish
// first, dispatch sequence as the deterministic tie-break.
type eventQueue []*asyncEntry

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].finish != q[j].finish {
		return q[i].finish < q[j].finish
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*asyncEntry)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// StalenessBuckets cover the haccs_async_staleness histogram: buffered
// aggregation rarely lets updates fall more than a few versions behind
// unless the latency tail is extreme.
var StalenessBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// inspStalenessSlots sizes the cumulative staleness histogram in the
// introspection state (last slot is the overflow).
const inspStalenessSlots = 16

// asyncMetrics caches the async-only collectors (nil when metrics are
// off); the shared round collectors live in driverMetrics.
type asyncMetrics struct {
	staleness  *telemetry.Histogram
	buffered   *telemetry.Counter
	stale      *telemetry.Counter
	aggregates *telemetry.Counter
	fill       *telemetry.Gauge
}

func newAsyncMetrics(reg *telemetry.Registry) *asyncMetrics {
	if reg == nil {
		return nil
	}
	return &asyncMetrics{
		staleness:  reg.Histogram("haccs_async_staleness", "Model-version staleness of buffered client updates.", StalenessBuckets),
		buffered:   reg.Counter("haccs_async_updates_buffered_total", "Client updates accepted into the aggregation buffer."),
		stale:      reg.Counter("haccs_async_updates_stale_total", "Client updates dropped past the staleness bound."),
		aggregates: reg.Counter("haccs_async_aggregations_total", "Buffered aggregations folded into the global model."),
		fill:       reg.Gauge("haccs_async_buffer_fill", "Aggregation buffer occupancy after the last buffer step."),
	}
}

// NewAsyncDriver builds the buffered asynchronous driver over the
// transport. Config.ClientsPerRound is the training concurrency (how
// many clients train at once); async tunes the buffer. initial is the
// global parameter vector; the driver takes ownership. The strategy
// must already be initialized, exactly as for NewDriver. Invalid
// configuration panics with the ValidateAsync error; callers holding
// user-supplied configuration should ValidateAsync first.
func NewAsyncDriver(cfg Config, async AsyncConfig, t Transport, strategy Strategy, initial []float64) *AsyncDriver {
	if err := ValidateAsync(cfg, async); err != nil {
		panic(err)
	}
	async = async.withDefaults(cfg.ClientsPerRound)
	c := cfg.ClientsPerRound
	d := &AsyncDriver{
		roundCore:       newProxyCore(cfg, t, strategy, initial, false),
		async:           async,
		amet:            newAsyncMetrics(cfg.Metrics),
		queue:           make(eventQueue, 0, c),
		buffer:          make([]*asyncEntry, 0, async.BufferK),
		weights:         make([]float64, 0, async.BufferK),
		cut:             make([]int, 0, c),
		failed:          make([]int, 0, c),
		batch:           make([]*asyncEntry, c),
		stalenessCounts: make([]int, inspStalenessSlots),
	}
	d.busy = make([]bool, len(d.proxies)) // client has an in-flight (queued) update
	// Each reply is captured eagerly as a delta in its pre-assigned entry,
	// so transport-owned reply buffers can be reused next cycle.
	d.sink = func(slot int, res Result) { d.batch[slot].fill(d.global, res) }
	d.refreshInspection(0)
	return d
}

// Version returns the global model version — the number of buffered
// aggregations applied so far.
func (d *AsyncDriver) Version() int { return d.version }

// InFlight returns how many dispatched updates are awaiting their
// virtual finish event.
func (d *AsyncDriver) InFlight() int { return len(d.queue) }

// RunRound executes one scheduling cycle: refill the free concurrency
// slots through the strategy (training the new dispatches eagerly),
// pop virtual finish events in deterministic order, buffer or
// stale-drop each update, and flush the buffer into the global model
// once it holds BufferK updates (or the queue runs dry). The returned
// Outcome maps the cycle onto the sync vocabulary: Selected are the
// new dispatches, Reporters the aggregated updates in buffer order,
// Cut the stale-dropped clients, RoundVirtual the cycle's virtual
// duration.
func (d *AsyncDriver) RunRound(round int) Outcome {
	tracer := d.cfg.Tracer
	// Refill: hand the strategy only the free concurrency slots, with
	// the clients still training masked out, so selected clients train
	// continuously across cycles.
	root, selected := d.begin(round, d.cfg.ClientsPerRound-len(d.queue))
	defer root.End()
	if len(selected) > 0 {
		for i, id := range selected {
			e := d.checkout()
			e.client, e.dispatchRound, e.version = id, round, d.version
			d.batch[i] = e
		}
		sp := root.Child("dispatch")
		d.fanOut(round, selected, sp)
		sp.End()
	}

	// Fold dispatch outcomes in selection order: failures mark the
	// client dead immediately (no virtual cost — the transport error
	// is instantaneous); successes enter the event queue.
	failed := d.failed[:0]
	for i, id := range selected {
		e := d.batch[i]
		if d.slotFailed[i] {
			failed = append(failed, id)
			d.release(e)
			continue
		}
		e.finish = d.clock + d.latency[id]
		e.seq = d.seq
		d.seq++
		heap.Push(&d.queue, e)
		d.setBusy(id, true)
	}
	d.failed = failed
	d.fail(round, failed)

	// Drain: pop finish events in (finish, seq) order until the buffer
	// reaches BufferK or the queue runs dry. The clock rides the
	// popped finish times — monotonic, because every dispatch happens
	// at the current clock and adds a non-negative latency.
	sp := root.Child("drain")
	cycleStart := d.clock
	cut := d.cut[:0]
	for len(d.queue) > 0 && len(d.buffer) < d.async.BufferK {
		e := heap.Pop(&d.queue).(*asyncEntry)
		d.clock = e.finish
		d.setBusy(e.client, false)
		tau := d.version - e.version
		e.staleness = tau
		if d.async.MaxStaleness > 0 && tau > d.async.MaxStaleness {
			cut = append(cut, e.client)
			d.staleDroppedTotal++
			if tracer != nil {
				tracer.Emit(telemetry.UpdateStale(round, e.client, tau, d.clock))
			}
			if d.amet != nil {
				d.amet.stale.Inc()
			}
			d.release(e)
			continue
		}
		d.buffer = append(d.buffer, e)
		d.bufferedTotal++
		d.stalenessCounts[min(tau, inspStalenessSlots-1)]++
		if tracer != nil {
			tracer.Emit(telemetry.UpdateBuffered(round, e.client, tau, len(d.buffer), d.clock))
		}
		if d.amet != nil {
			d.amet.staleness.Observe(float64(tau))
			d.amet.buffered.Inc()
			d.amet.fill.Set(float64(len(d.buffer)))
		}
	}
	d.cut = cut
	sp.End()

	// Aggregate: staleness-weighted FedBuff step over the buffered
	// deltas. A partial buffer still flushes when the queue is dry —
	// no more events are coming this cycle, and stranding updates
	// behind an unfillable buffer (fleet deaths) would lose them. A
	// cycle with nothing dispatched, queued or buffered idles one
	// virtual second, exactly like the sync driver's empty round.
	sp = root.Child("aggregate")
	aggregated := len(d.buffer) > 0
	maxTau := 0
	if aggregated {
		d.applyBuffer()
		d.version++
		for _, e := range d.buffer {
			d.credit(e.client, Result{NumSamples: e.numSamples, Loss: e.loss, Summary: e.summary, Stats: e.stats}, e.staleness)
			maxTau = max(maxTau, e.staleness)
		}
	} else if len(selected) == 0 && len(d.queue) == 0 {
		d.clock++
	}
	roundVirtual := d.clock - cycleStart
	sp.End()

	if aggregated {
		if tracer != nil {
			ids := make([]int, len(d.buffer))
			for i, e := range d.buffer {
				ids[i] = e.client
			}
			tracer.Emit(telemetry.AggregateAsync(round, ids, maxTau, roundVirtual, d.clock))
		}
		if d.amet != nil {
			d.amet.aggregates.Inc()
			d.amet.fill.Set(0)
		}
	}
	out := d.finish(round, root, Outcome{
		Selected:     selected,
		Cut:          cut,
		Failed:       failed,
		RoundVirtual: roundVirtual,
		Aggregated:   aggregated,
	})

	flushed := len(d.buffer)
	for _, e := range d.buffer {
		d.release(e)
	}
	d.buffer = d.buffer[:0]
	d.refreshInspection(flushed)
	return out
}

// applyBuffer folds the buffered deltas into the global model:
// global += Σ (w_i / Σw) · delta_i with w_i = n_i / (1+τ_i)^α. At
// τ = 0 everywhere this reduces to sample-weighted FedAvg over the
// deltas.
func (d *AsyncDriver) applyBuffer() {
	weights := d.weights[:0]
	total := 0.0
	for _, e := range d.buffer {
		if e.numSamples <= 0 {
			panic("rounds: async update with non-positive sample count")
		}
		w := float64(e.numSamples) / math.Pow(1+float64(e.staleness), d.async.StalenessExponent)
		weights = append(weights, w)
		total += w
	}
	d.weights = weights
	for i, e := range d.buffer {
		c := weights[i] / total
		for j, v := range e.delta {
			d.global[j] += c * v
		}
	}
}

// checkout takes an entry from the pool (entries cycle between the
// event queue, the buffer and the free list; the population is bounded
// by the concurrency).
func (d *AsyncDriver) checkout() *asyncEntry {
	if n := len(d.free); n > 0 {
		e := d.free[n-1]
		d.free = d.free[:n-1]
		return e
	}
	return &asyncEntry{}
}

func (d *AsyncDriver) release(e *asyncEntry) {
	e.summary = nil
	e.stats = nil
	d.free = append(d.free, e)
}

// refreshInspection snapshots the driver state served at
// /debug/selection. Called at the end of every cycle (and at
// construction/restore), it copies everything the HTTP handler reads
// so AsyncState never races the drain loop.
func (d *AsyncDriver) refreshInspection(lastFlush int) {
	inflight := make([]*asyncEntry, len(d.queue))
	copy(inflight, d.queue)
	sort.Slice(inflight, func(i, j int) bool {
		if inflight[i].finish != inflight[j].finish {
			return inflight[i].finish < inflight[j].finish
		}
		return inflight[i].seq < inflight[j].seq
	})
	ids := make([]int, len(inflight))
	for i, e := range inflight {
		ids[i] = e.client
	}
	counts := append([]int(nil), d.stalenessCounts...)
	d.inspMu.Lock()
	d.insp = introspect.AsyncState{
		Version:           d.version,
		BufferK:           d.async.BufferK,
		MaxStaleness:      d.async.MaxStaleness,
		StalenessExponent: d.async.StalenessExponent,
		InFlight:          ids,
		BufferFill:        len(d.buffer),
		LastFlush:         lastFlush,
		Buffered:          d.bufferedTotal,
		StaleDropped:      d.staleDroppedTotal,
		StalenessCounts:   counts,
		Clock:             d.clock,
	}
	d.inspMu.Unlock()
}

// AsyncState implements introspect.AsyncInspector; safe to call
// concurrently with RunRound.
func (d *AsyncDriver) AsyncState() introspect.AsyncState {
	d.inspMu.Lock()
	defer d.inspMu.Unlock()
	st := d.insp
	st.InFlight = append([]int(nil), st.InFlight...)
	st.StalenessCounts = append([]int(nil), st.StalenessCounts...)
	return st
}

// Both drivers present the same runtime surface.
var (
	_ Runner                    = (*Driver)(nil)
	_ Runner                    = (*AsyncDriver)(nil)
	_ introspect.AsyncInspector = (*AsyncDriver)(nil)
)
