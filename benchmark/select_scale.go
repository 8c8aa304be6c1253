package main

import (
	"fmt"
	"math"
	"time"

	"haccs/internal/core"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/rounds"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// selectSize sizes select_scale. The roster is split into big label
// groups, whose clients re-report their summaries in rotating batches,
// and small ones, each of which moves wholesale to a label mix not seen
// before when its injection comes up: the cluster it leaves empties,
// which is the drift that makes the sketch backend re-cluster.
type selectSize struct {
	bigGroups, bigSize     int
	smallGroups, smallSize int
	k                      int
	batch                  int // summaries per per-round drift batch
	injectEvery            int // rounds between injections
}

var (
	selectFull  = selectSize{bigGroups: 10, bigSize: 1600, smallGroups: 10, smallSize: 400, k: 64, batch: 200, injectEvery: 50}
	selectShort = selectSize{bigGroups: 4, bigSize: 100, smallGroups: 4, smallSize: 25, k: 8, batch: 20, injectEvery: 4}
)

func (s selectSize) clients() int { return s.bigGroups*s.bigSize + s.smallGroups*s.smallSize }

const (
	selectClasses = 32   // label bins; the sketch embeds them exactly
	selectNewMix  = 12   // fresh majority labels the injections cycle through
	selectSamples = 2000 // per-client dataset size behind a summary
	selectDim     = 256  // model parameters: nothing trains here
)

type selectScale struct {
	size   selectSize
	tr     *tracer
	driver *rounds.Driver
	sched  *core.Scheduler
	strat  *checkedStrategy

	batches    []map[int]core.Summary // rotating re-reports, big groups only
	injections []map[int]core.Summary // injection j moves small group j%smallGroups

	updateSec, reclusterSec []float64
	reclustersSeen          int // last count read in the traced window; -1 before the first
}

// groupMix is a label group's distribution: 75 % on one majority label
// and 12/7/6 % on the next three.
func groupMix(major int) [selectClasses]float64 {
	var p [selectClasses]float64
	p[major] = 0.75
	for i, f := range []float64{0.12, 0.07, 0.06} {
		p[(major+1+i)%selectClasses] = f
	}
	return p
}

// drawSummary jitters a mix's expected counts at multinomial scale for
// a selectSamples-sample device.
func drawSummary(p *[selectClasses]float64, rng *stats.RNG) core.Summary {
	h := stats.NewLabelHistogram(selectClasses)
	for c, pc := range p {
		if pc == 0 {
			continue
		}
		m := pc * selectSamples
		h.Counts[c] = math.Max(0, m+rng.Normal(0, math.Sqrt(m*(1-pc))))
	}
	return core.Summary{Kind: core.PY, Label: h}
}

// instantProxy answers a training request at once with its input.
type instantProxy struct {
	id      int
	latency float64
	bufs    [][]float64 // per selection slot, shared by all proxies
}

func (p *instantProxy) Train(round, worker, slot int, params []float64, _ telemetry.SpanContext) (rounds.Result, error) {
	copy(p.bufs[slot], params)
	return rounds.Result{ClientID: p.id, Params: p.bufs[slot], NumSamples: selectSamples,
		Loss: 2.3 / (1 + float64(round)/1000) * (1 + float64(p.id%7)/10)}, nil
}

func (p *instantProxy) Latency() float64 { return p.latency }

type instantTransport []rounds.Proxy

func (t instantTransport) Proxies() []rounds.Proxy { return t }
func (t instantTransport) Parallelism() int        { return 1 }

// setupSelectScale builds a rounds.Driver over instant in-process
// proxies with HACCS-P(y) on the sketch backend and the fleet registry
// on, pre-generates every drift batch the run will apply, and runs the
// warm-up block on the same driver.
func setupSelectScale(e *env, warmRounds, totalRounds int) (instance, error) {
	size := selectFull
	if e.short {
		size = selectShort
	}
	n := size.clients()
	rng := stats.NewRNG(stats.DeriveSeed(e.seed, 1))

	// Client → group by a seeded shuffle; group g's majority label is g.
	s := time.Now()
	groupOf := make([]int, 0, n)
	for g := 0; g < size.bigGroups; g++ {
		for i := 0; i < size.bigSize; i++ {
			groupOf = append(groupOf, g)
		}
	}
	for g := 0; g < size.smallGroups; g++ {
		for i := 0; i < size.smallSize; i++ {
			groupOf = append(groupOf, size.bigGroups+g)
		}
	}
	rng.Shuffle(n, func(i, j int) { groupOf[i], groupOf[j] = groupOf[j], groupOf[i] })
	groups := size.bigGroups + size.smallGroups
	mixes := make([][selectClasses]float64, groups)
	for g := range mixes {
		mixes[g] = groupMix(g)
	}
	// Every group's latencies are the same evenly spaced 1–10 s ladder;
	// the shuffle above decides which client stands on which rung.
	sizeOf := func(g int) int {
		if g < size.bigGroups {
			return size.bigSize
		}
		return size.smallSize
	}
	rung := make([]int, groups)
	sums := make([]core.Summary, n)
	infos := make([]fl.ClientInfo, n)
	for id, g := range groupOf {
		sums[id] = drawSummary(&mixes[g], rng)
		lat := 1 + 9*(float64(rung[g])+0.5)/float64(sizeOf(g))
		rung[g]++
		infos[id] = fl.ClientInfo{ID: id, Latency: lat, NumSamples: selectSamples}
	}

	sel := &selectScale{size: size, tr: e.tr, reclustersSeen: -1}
	// Re-reports: big-group clients in ID order, batch by batch, each a
	// fresh draw from the client's own mix.
	cur := map[int]core.Summary{}
	for id, g := range groupOf {
		if g >= size.bigGroups {
			continue
		}
		cur[id] = drawSummary(&mixes[g], rng)
		if len(cur) == size.batch {
			sel.batches = append(sel.batches, cur)
			cur = map[int]core.Summary{}
		}
	}
	if len(cur) > 0 {
		sel.batches = append(sel.batches, cur)
	}
	for j := 0; j < totalRounds/size.injectEvery; j++ {
		mix := groupMix(groups + j%selectNewMix)
		moved := map[int]core.Summary{}
		for id, g := range groupOf {
			if g == size.bigGroups+j%size.smallGroups {
				moved[id] = drawSummary(&mix, rng)
			}
		}
		sel.injections = append(sel.injections, moved)
	}
	e.times.add("dataset.build_s", time.Since(s).Seconds())

	spans, reg := e.tr.sys()
	sel.sched = core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.5, Backend: core.SketchBackend,
		Sketch: core.SketchOptions{Dim: selectClasses, Seed: stats.DeriveSeed(e.seed, 2)}, Metrics: reg}, sums)
	s = time.Now()
	sel.sched.Init(infos, stats.NewRNG(stats.DeriveSeed(e.seed, 3)))
	e.times.add("core.init_cluster_ms", time.Since(s).Seconds())

	bufs := make([][]float64, size.k)
	for i := range bufs {
		bufs[i] = make([]float64, selectDim)
	}
	proxies := make(instantTransport, n)
	for id := range proxies {
		proxies[id] = &instantProxy{id: id, latency: infos[id].Latency, bufs: bufs}
	}
	sel.strat = newCheckedStrategy(sel.sched, n, e.tr)
	sel.driver = rounds.NewDriver(rounds.Config{
		ClientsPerRound: size.k,
		Spans:           spans,
		Metrics:         reg,
		Fleet:           fleet.NewRegistry(n, fleet.Options{Source: sel.sched, Metrics: reg}),
	}, proxies, sel.strat, make([]float64, selectDim))

	for r := 0; r < warmRounds; r++ {
		sel.step(r)
	}
	return sel, nil
}

func (s *selectScale) reclusters() int {
	if sk := s.sched.SelectionState().Sketch; sk != nil {
		return sk.Reclusters
	}
	return 0
}

func (s *selectScale) step(round int) (int, int) {
	id := s.tr.id()
	start := time.Now()
	out := s.driver.RunRound(round)
	s.tr.record("run_round", s.tr.id(), id, round, start, time.Since(start))
	s.apply(id, round, s.batches[round%len(s.batches)])
	if (round+1)%s.size.injectEvery == 0 {
		if j := (round+1)/s.size.injectEvery - 1; j < len(s.injections) {
			s.apply(id, round, s.injections[j])
		}
	}
	s.tr.record("iter", id, "", round, start, time.Since(start))
	failed := len(out.Failed)
	if !out.Aggregated {
		failed++
	}
	return len(out.Selected), failed
}

// apply sends one batch of summaries through UpdateSummaries. In the
// traced pass it also sorts the call's time by whether it re-clustered.
func (s *selectScale) apply(parent string, round int, batch map[int]core.Summary) {
	if !s.tr.timing() {
		s.sched.UpdateSummaries(batch)
		return
	}
	if s.reclustersSeen < 0 {
		s.reclustersSeen = s.reclusters()
	}
	d := s.tr.timed("update_summaries", parent, round, func() { s.sched.UpdateSummaries(batch) })
	if n := s.reclusters(); n != s.reclustersSeen {
		s.reclustersSeen = n
		s.reclusterSec = append(s.reclusterSec, d.Seconds())
	} else {
		s.updateSec = append(s.updateSec, d.Seconds())
	}
}

func (s *selectScale) finish(rounds int) []check {
	injected := min(rounds/s.size.injectEvery, len(s.injections))
	got := s.reclusters() - 1 // Init's clustering is the first
	g := s.driver.Global()
	return []check{
		s.strat.check(),
		{name: "drift_reclusters", ok: got >= injected && injected > 0, detail: fmt.Sprintf("%d re-clusterings after %d injections", got, injected)},
		{name: "global_finite", ok: allFinite(g), detail: fmt.Sprintf("%d parameters", len(g))},
	}
}

func (s *selectScale) outputs() exactOutputs {
	return exactOutputs{virtualTime: s.driver.Clock(), globalFNV: hashFloats(s.driver.Global()), selectFNV: s.strat.hash}
}

func (s *selectScale) layers(m layerMetrics, rounds int) {
	st := totals(s.tr.all("run_round"))
	m["core.select_ms"] = s.strat.selectSec / float64(rounds) * 1e3
	m["core.update_ms"] = s.strat.updateSec / float64(rounds) * 1e3
	m["core.update_summaries_ms"] = stats.Mean(s.updateSec) * 1e3
	m["core.recluster_ms"] = stats.Mean(s.reclusterSec) * 1e3
	if sk := s.sched.SelectionState().Sketch; sk != nil {
		m["core.reclusters"] = float64(sk.Reclusters)
		m["core.reps"] = float64(sk.Representatives)
	}
	roundLayers(m, st, rounds)
}

func (s *selectScale) close() {}
