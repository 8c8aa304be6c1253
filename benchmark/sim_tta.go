package main

import (
	"fmt"
	"time"

	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/experiments"
	"haccs/internal/fl"
	"haccs/internal/nn"
	"haccs/internal/simnet"
	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// simSize sizes sim_tta. Every client holds the same number of samples
// and every label group the same mix of device tiers, so the work in a
// round and the virtual time it takes do not depend on which clients
// the seed makes fast: the seed shuffles, it does not resize.
type simSize struct {
	clients   int
	k         int
	samples   int // per client, 80 % of them train
	evalEvery int
	target    float64 // 0 disables the accuracy check (smoke size)
}

var (
	simFull  = simSize{clients: 50, k: 6, samples: 160, evalEvery: 5, target: 0.70}
	simShort = simSize{clients: 20, k: 4, samples: 40, evalEvery: 2, target: 0}
)

const simClasses = 10

// tierPattern is one label group's device tiers in Table II's
// proportions (60/20/15/5 %, the last two folded into one slot per
// group). Stratifying by group keeps a fast device in every cluster,
// which is what HACCS picks, whatever the seed.
var tierPattern = []simnet.Category{simnet.Fast, simnet.Fast, simnet.Fast, simnet.Medium, simnet.Slow}

type simTTA struct {
	size   simSize
	tr     *tracer
	engine *fl.Engine
	strat  *checkedFLStrategy
	arch   nn.Arch

	roundsToTarget int
	bestAcc        float64
	evalSec        []float64
}

func simArch() nn.Arch {
	return nn.Arch{Kind: "lenet", Channels: 3, Height: 16, Width: 16, Classes: simClasses, ConvFilters: [2]int{4, 8}}
}

// setupSimTTA builds the paper's own experiment: majority-noise label
// skew over synthetic CIFAR, a small LeNet, HACCS-P(y) on the dense
// backend. It warms up on a scratch engine that is discarded, so the
// measured trajectory starts at round 0.
func setupSimTTA(e *env, warmRounds, _ int) (instance, error) {
	size := simFull
	if e.short {
		size = simShort
	}
	arch := simArch()
	spec := dataset.SyntheticCIFAR().Compact(arch.Height, arch.Width)
	// Class prototypes twice as far apart as the stock spec's, so every
	// seed crosses the target well inside the window (see README).
	spec.ClassSep = 0.7

	s := time.Now()
	plan := dataset.MajorityNoisePlan(size.clients, simClasses, size.samples, size.samples,
		stats.NewRNG(stats.DeriveSeed(e.seed, 1)))
	w := experiments.BuildWorkload(spec, plan, arch, stats.DeriveSeed(e.seed, 2))
	assignTiers(w.Clients, stats.NewRNG(stats.DeriveSeed(e.seed, 3)))
	e.times.add("dataset.build_s", time.Since(s).Seconds())

	s = time.Now()
	sums := core.BuildSummaries(w.TrainSets, core.PY, 0, 0, stats.NewRNG(stats.DeriveSeed(e.seed, 4)))
	e.times.add("core.summaries_ms", time.Since(s).Seconds())

	spans, reg := e.tr.sys()
	cfg := fl.Config{
		Arch:                arch,
		Seed:                stats.DeriveSeed(e.seed, 5),
		Local:               fl.LocalTrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05},
		ClientsPerRound:     size.k,
		MaxRounds:           1 << 30, // the harness drives rounds itself
		PerSampleComputeSec: 0.01,
		Parallelism:         1,
	}
	build := func(c fl.Config) (*fl.Engine, *checkedFLStrategy) {
		sched := core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.5, Metrics: c.Metrics}, sums)
		strat := newCheckedFLStrategy(sched, size.clients, e.tr)
		return fl.NewEngine(c, w.Clients, strat), strat
	}
	scratch, _ := build(cfg)
	for r := 0; r < warmRounds; r++ {
		scratch.RunRound(r)
		if (r+1)%size.evalEvery == 0 {
			scratch.Evaluate()
		}
	}
	cfg.Spans, cfg.Metrics = spans, reg
	s = time.Now()
	eng, strat := build(cfg) // NewEngine runs Scheduler.Init: distance matrix + OPTICS
	e.times.add("core.init_cluster_ms", time.Since(s).Seconds())
	return &simTTA{size: size, tr: e.tr, engine: eng, strat: strat, arch: arch}, nil
}

// assignTiers gives every label group (the clients sharing a majority
// label) the same five devices — the tier pattern, each tier's Table II
// intervals sampled at fixed points — and lets the seed decide which
// member owns which device.
func assignTiers(clients []*fl.Client, rng *stats.RNG) {
	at := func(lo, hi float64, slot, of int) float64 { return lo + (hi-lo)*(float64(slot)+0.5)/float64(of) }
	for g := 0; g < simClasses; g++ {
		var members []int
		for id := g; id < len(clients); id += simClasses {
			members = append(members, id)
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for i, id := range members {
			slot := i % len(tierPattern)
			tier := tierPattern[slot]
			if tier == simnet.Slow && g < 2 {
				tier = simnet.VerySlow
			}
			lo, hi := simnet.ProfileForCategory(tier, fixedRNG(0)), simnet.ProfileForCategory(tier, fixedRNG(1))
			clients[id].Profile = simnet.Profile{
				Category:          tier,
				ComputeMultiplier: at(lo.ComputeMultiplier, hi.ComputeMultiplier, slot, len(tierPattern)),
				BandwidthMbps:     at(lo.BandwidthMbps, hi.BandwidthMbps, slot, len(tierPattern)),
				NetLatencySec:     at(lo.NetLatencySec, hi.NetLatencySec, (slot+g)%len(tierPattern), len(tierPattern)),
			}
		}
	}
}

// fixedRNG answers every draw with the same point of its interval, so
// ProfileForCategory yields a tier's lower (0) or upper (1) corner.
type fixedRNG float64

func (f fixedRNG) Float64() float64               { return float64(f) }
func (f fixedRNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*float64(f) }

func (s *simTTA) step(round int) (int, int) {
	id := s.tr.id()
	start := time.Now()
	out := s.engine.RunRound(round)
	s.tr.record("run_round", s.tr.id(), id, round, start, time.Since(start))
	attempted, failed := len(out.Selected), len(out.Failed)
	if !out.Aggregated {
		failed++
	}
	if (round+1)%s.size.evalEvery == 0 {
		var acc float64
		d := s.tr.timed("evaluate", id, round, func() { acc, _, _ = s.engine.Evaluate() })
		s.evalSec = append(s.evalSec, d.Seconds())
		if acc > s.bestAcc {
			s.bestAcc = acc
		}
		if s.roundsToTarget == 0 && acc >= s.size.target {
			s.roundsToTarget = round + 1
		}
	}
	s.tr.record("iter", id, "", round, start, time.Since(start))
	return attempted, failed
}

func (s *simTTA) finish(rounds int) []check {
	params := s.engine.GlobalParams()
	return []check{
		s.strat.check(),
		{name: "reaches_target_accuracy", ok: s.roundsToTarget > 0,
			detail: fmt.Sprintf("target %.2f first met at round %d of %d (best %.3f)", s.size.target, s.roundsToTarget, rounds, s.bestAcc)},
		{name: "global_finite", ok: allFinite(params), detail: fmt.Sprintf("%d parameters", len(params))},
	}
}

func (s *simTTA) outputs() exactOutputs {
	return exactOutputs{virtualTime: s.engine.Clock(), globalFNV: hashFloats(s.engine.GlobalParams()), selectFNV: s.strat.hash}
}

func (s *simTTA) layers(m layerMetrics, rounds int) {
	st := totals(s.tr.all("run_round"))
	m["fl.local_train_ms"] = st.meanMS("train")
	if st.total["round"] > 0 {
		m["fl.local_train_share"] = st.total["train"] / st.total["round"]
	}
	m["fl.evaluate_ms"] = stats.Mean(s.evalSec) * 1e3
	m["fl.rounds_to_target"] = float64(s.roundsToTarget)
	m["core.select_ms"] = s.strat.selectSec / float64(rounds) * 1e3
	m["core.update_ms"] = s.strat.updateSec / float64(rounds) * 1e3
	roundLayers(m, st, rounds)
	m["tensor.gemm_ms"], m["nn.forward_ms"], m["nn.train_step_ms"] = kernelTimes(s.arch)
}

func (s *simTTA) close() {}

// roundLayers reads the round driver's own phase spans: each phase's
// time per round, and the driver's self time (round minus phases).
func roundLayers(m layerMetrics, st spanTotals, rounds int) {
	for _, phase := range []string{"select", "dispatch", "collect", "aggregate", "update"} {
		m["rounds."+phase+"_ms"] = st.perRoundMS(phase, rounds)
	}
	m["rounds.driver_self_ms"] = st.self["round"] / float64(rounds) * 1e3
}

// kernelTimes times the tensor and nn layers from outside, on one
// 32-sample batch: the LeNet's largest im2col GEMM, a forward pass,
// and a full training step. Medians of 200.
func kernelTimes(arch nn.Arch) (gemmMS, forwardMS, stepMS float64) {
	const batch, reps = 32, 200
	rng := stats.NewRNG(7)
	net := arch.Build(rng)

	// Largest filters × patch × (batch · positions) product among the
	// conv layers.
	var a, b *tensor.Dense
	best := 0
	for _, l := range net.Layers {
		c, ok := l.(*nn.Conv2D)
		if !ok {
			continue
		}
		width := batch * c.Geom.OutHeight() * c.Geom.OutWidth()
		if flops := c.Filters * c.Geom.ColRows() * width; flops > best {
			best = flops
			a, b = tensor.New(c.Filters, c.Geom.ColRows()), tensor.New(c.Geom.ColRows(), width)
		}
	}
	if a != nil {
		a.RandUniform(-1, 1, rng)
		b.RandUniform(-1, 1, rng)
		dst := tensor.New(a.Rows(), b.Cols())
		gemmMS = medianOf(reps, func() { tensor.MatMulInto(dst, a, b) }) * 1e3
	}

	x := tensor.New(batch, arch.Channels*arch.Height*arch.Width)
	x.RandUniform(0, 1, rng)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % arch.Classes
	}
	forwardMS = medianOf(reps, func() { net.Forward(x) }) * 1e3
	opt := nn.NewSGD(0.05, 0, 0)
	stepMS = medianOf(reps, func() { nn.TrainBatch(net, opt, x, y) }) * 1e3
	return gemmMS, forwardMS, stepMS
}

// medianOf times fn reps times (after one untimed call) and returns
// the median in seconds.
func medianOf(reps int, fn func()) float64 {
	fn()
	d := make([]float64, reps)
	for i := range d {
		s := time.Now()
		fn()
		d[i] = time.Since(s).Seconds()
	}
	return median(d)
}
