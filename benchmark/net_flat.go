package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/flnet"
	"haccs/internal/loadgen"
	"haccs/internal/rounds"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// flatSize sizes net_flat_sync.
type flatSize struct {
	clients, k, dim int
	ckptEvery       int
}

var (
	flatFull  = flatSize{clients: 16, k: 8, dim: 65536, ckptEvery: 10}
	flatShort = flatSize{clients: 6, k: 3, dim: 1024, ckptEvery: 2}
)

type netFlat struct {
	size  flatSize
	tr    *tracer
	srv   *flnet.Server
	coord *flnet.Coordinator
	fleet *clientFleet
	strat *checkedStrategy
	store *checkpoint.Store
	dir   string

	samples  []int
	expected float64 // closed-form value of every global coordinate

	frames0, bytes0 int64 // wire counts when the measured window began
}

// spreadRoster returns per-client latencies and sample counts: fixed
// evenly spaced values dealt to the clients in seed-shuffled order, so
// the seed decides who is slow, not how slow the roster is.
func spreadRoster(n int, loSec, hiSec float64, rng *stats.RNG) (latency []float64, samples []int) {
	latency, samples = make([]float64, n), make([]int, n)
	for i := range latency {
		latency[i] = loSec + (hiSec-loSec)*float64(i)/float64(max(n-1, 1))
		samples[i] = 100 + 10*i
	}
	rng.Shuffle(n, func(i, j int) { latency[i], latency[j] = latency[j], latency[i] })
	rng.Shuffle(n, func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return latency, samples
}

// setupNetFlat seats harness-owned clients on one flnet.Server over
// loopback TCP and builds a synchronous coordinator with a uniform
// strategy and a checkpoint store, then runs the warm-up rounds.
func setupNetFlat(e *env, warmRounds, _ int) (instance, error) {
	size := flatFull
	if e.short {
		size = flatShort
	}
	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	latency, samples := spreadRoster(size.clients, 1, 4, stats.NewRNG(stats.DeriveSeed(e.seed, 1)))
	specs := make([]clientSpec, size.clients)
	for id := range specs {
		specs[id] = clientSpec{id: id, addr: srv.Addr(), latency: latency[id], samples: samples[id], labelCounts: []float64{1}}
	}
	nf := &netFlat{size: size, tr: e.tr, srv: srv, samples: samples}
	if nf.fleet, err = startFleet(specs); err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := time.Now()
	if _, err := srv.AcceptClients(size.clients); err != nil {
		nf.close()
		return nil, err
	}
	e.times.add("flnet.accept_ms", time.Since(s).Seconds())

	nf.dir = filepath.Join(e.outDir, fmt.Sprintf("ckpt-net_flat_sync-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if nf.store, err = checkpoint.NewStore(nf.dir, 3); err != nil {
		nf.close()
		return nil, err
	}
	spans, reg := e.tr.sys()
	nf.strat = newCheckedStrategy(loadgen.NewUniformStrategy(stats.DeriveSeed(e.seed, 2)), size.clients, e.tr)
	nf.coord, err = flnet.NewCoordinator(srv, flnet.CoordinatorConfig{
		ClientsPerRound: size.k,
		Spans:           spans,
		Metrics:         reg,
		Checkpoint:      nf.store,
		CheckpointEvery: size.ckptEvery,
	}, nf.strat, make([]float64, size.dim))
	if err != nil {
		nf.close()
		return nil, err
	}
	for r := 0; r < warmRounds; r++ {
		nf.step(r)
	}
	nf.frames0, nf.bytes0 = nf.frames(), nf.bytes()
	return nf, nil
}

func (n *netFlat) frames() int64 { return n.fleet.calls.Load() + n.fleet.counts.writes.Load() }
func (n *netFlat) bytes() int64 {
	return n.fleet.counts.readBytes.Load() + n.fleet.counts.writeBytes.Load()
}

func (n *netFlat) step(round int) (int, int) {
	id := n.tr.id()
	start := time.Now()
	out := n.coord.RunRound(round) // includes the checkpoint save when one is due
	n.tr.record("run_round", id, "", round, start, time.Since(start))
	// Echo clients return global + shift, so FedAvg moves every
	// coordinate by the sample-weighted mean shift of the reporters.
	num, den := 0.0, 0.0
	for _, c := range out.Reporters {
		w := float64(n.samples[c])
		num += w * echoShift(c)
		den += w
	}
	if den > 0 {
		n.expected += num / den
	}
	failed := len(out.Failed)
	if !out.Aggregated {
		failed++
	}
	return len(out.Selected), failed
}

func (n *netFlat) finish(rounds int) []check {
	g := n.coord.Global()
	rel := math.Abs(g[0]-n.expected) / math.Max(math.Abs(n.expected), 1e-300)
	latest := -1
	if snap, err := n.store.LoadLatest(); err == nil {
		latest = snap.Round
	}
	wantRound := rounds - rounds%n.size.ckptEvery
	return []check{
		n.strat.check(),
		{name: "global_closed_form", ok: allEqual(g) && rel <= 1e-9,
			detail: fmt.Sprintf("coordinate %.12g, closed form %.12g (rel %.1e), all equal %v", g[0], n.expected, rel, allEqual(g))},
		{name: "checkpoint_at_last_cadence", ok: latest == wantRound,
			detail: fmt.Sprintf("LoadLatest round %d, want %d", latest, wantRound)},
	}
}

func (n *netFlat) outputs() exactOutputs {
	return exactOutputs{virtualTime: n.coord.Clock(), globalFNV: hashFloats(n.coord.Global()), selectFNV: n.strat.hash}
}

func (n *netFlat) layers(m layerMetrics, rounds int) {
	// Counts first: the probes below put more frames on the wire.
	m["flnet.bytes_per_round"] = float64(n.bytes()-n.bytes0) / float64(rounds)
	m["flnet.frames_per_round"] = float64(n.frames()-n.frames0) / float64(rounds)
	st := totals(n.tr.all("run_round"))
	m["core.select_ms"] = n.strat.selectSec / float64(rounds) * 1e3
	m["core.update_ms"] = n.strat.updateSec / float64(rounds) * 1e3
	roundLayers(m, st, rounds)
	m["rounds.fedavg_ms"] = fedAvgMS(n.size.k, n.size.dim)
	m["flnet.train_rtt_ms"] = trainRTTMS(n.srv, 0, n.size.dim)

	if err := n.checkpointLayers(m, rounds); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: checkpoint probe:", err)
	}
}

// checkpointLayers times what a due checkpoint adds to a round, from
// outside: capturing and encoding a snapshot, and saving it durably (on
// a side store, so the run's own history is untouched). Medians of 20.
func (n *netFlat) checkpointLayers(m layerMetrics, rounds int) error {
	side, err := checkpoint.NewStore(filepath.Join(n.dir, "side"), 2)
	if err != nil {
		return err
	}
	const reps = 20
	capture, save := make([]float64, reps), make([]float64, reps)
	for i := range capture {
		s := time.Now()
		snap, err := n.coord.Snapshot(rounds)
		if err != nil {
			return err
		}
		enc, err := snap.Encode()
		if err != nil {
			return err
		}
		capture[i] = time.Since(s).Seconds()
		s = time.Now()
		if _, err := side.Save(snap); err != nil {
			return err
		}
		save[i] = time.Since(s).Seconds()
		m["checkpoint.bytes"] = float64(len(enc))
	}
	m["checkpoint.capture_encode_ms"] = median(capture) * 1e3
	m["checkpoint.save_ms"] = median(save) * 1e3
	return nil
}

func (n *netFlat) close() {
	n.srv.Shutdown() // farewells every client, so their Serve loops return
	if n.fleet != nil {
		n.fleet.wait()
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// trainRTTMS times sequential Server.Train exchanges with one idle
// client at the workload's parameter dimension: median of 200.
func trainRTTMS(srv *flnet.Server, client, dim int) float64 {
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(i%251) / 251
	}
	round := 1 << 20
	var err error
	ms := medianOf(200, func() {
		if _, e := srv.Train(client, round, params, telemetry.SpanContext{}); e != nil && err == nil {
			err = e
		}
		round++
	}) * 1e3
	if err != nil {
		// A failed exchange drops the session; the rest fail fast and
		// their timing means nothing.
		fmt.Fprintln(os.Stderr, "benchmark: train round-trip probe:", err)
		return 0
	}
	return ms
}

// fedAvgMS times rounds.FedAvgInto over k updates of dim parameters:
// median of 200.
func fedAvgMS(k, dim int) float64 {
	rng := stats.NewRNG(11)
	res := make([]rounds.Result, k)
	for i := range res {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		res[i] = rounds.Result{ClientID: i, Params: p, NumSamples: 100 + i}
	}
	dst := make([]float64, dim)
	return medianOf(200, func() { rounds.FedAvgInto(dst, res) }) * 1e3
}
