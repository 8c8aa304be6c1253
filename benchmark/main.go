// Command benchmark is this repository's benchmark: four workloads,
// each run in a fresh process on one OS thread's worth of Go scheduler
// (GOMAXPROCS=1), each reporting the same eight end-to-end metrics from
// the fastest sixth of many short, equal blocks of rounds, and — in a separate
// traced pass — per-layer metrics taken by timing the program's public
// calls from outside. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload net_flat_sync -trace 1
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one of the benchmark's fixed input sets.
type workload struct {
	name string
	why  string
	// A block is a fixed number of rounds — a whole number of the
	// workload's own cadences — lasting a fraction of a second on the
	// 2-vCPU box this was sized on; blocks is how many of them fill the
	// default window. The short sizes are the smoke test's.
	blockRounds, warmRounds, blocks   int
	shortBlockRounds, shortWarmRounds int
	// setup builds one warmed-up instance; total is the run's last round
	// index + 1, for workloads that pre-generate per-round inputs.
	setup func(e *env, warm, total int) (instance, error)
}

var workloads = []workload{
	{
		name:        "sim_tta",
		why:         "the paper's experiment: local LeNet training is >95% of a round, so a tensor/nn/fl kernel win shows here and a wire win must not",
		blockRounds: 5, warmRounds: 10, blocks: 30, shortBlockRounds: 2, shortWarmRounds: 1,
		setup: setupSimTTA,
	},
	{
		name:        "select_scale",
		why:         "20k clients, no training: core/sketch/cluster do the work, reads (Select, Update) beside writes (UpdateSummaries, re-cluster)",
		blockRounds: 50, warmRounds: 100, blocks: 45, shortBlockRounds: 4, shortWarmRounds: 4,
		setup: setupSelectScale,
	},
	{
		name:        "net_flat_sync",
		why:         "bytes-bound: 512 KiB gob frames over loopback TCP, FedAvg over 8 x 64k, snapshot encode + fsync every 10th round",
		blockRounds: 10, warmRounds: 50, blocks: 75, shortBlockRounds: 2, shortWarmRounds: 2,
		setup: setupNetFlat,
	},
	{
		name:        "net_hier_async",
		why:         "message-bound: 16x smaller frames, 6x the sessions, the shard hop and the async drivers, per-message cost instead of per-byte",
		blockRounds: 100, warmRounds: 200, blocks: 65, shortBlockRounds: 4, shortWarmRounds: 2,
		setup: setupNetHier,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Sizing of a run. Round counts are fixed per block, and -seconds
// scales the number of blocks from the default window's; nothing is
// sized by the clock, which keeps every exact output a pure function of
// the arguments.
const (
	defaultSeconds = 20
	minBlocks      = 2 * quietShare
	setupRepeats   = 5 // set-ups per untraced run; setup_s is their median
)

func (wl *workload) blocksFor(seconds int) int {
	return max(minBlocks, int(math.Round(float64(wl.blocks*seconds)/defaultSeconds)))
}

// env is what a workload's set-up gets from the harness.
type env struct {
	seed   uint64
	short  bool
	outDir string
	tr     *tracer    // nil in the untraced pass
	times  setupTimes // public calls timed during set-up
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	short    bool
	outDir   string
}

// pass is one set-up + measured window of a workload.
type pass struct {
	setupSec []float64
	win      window
	rounds   int // measured rounds
	checks   []check
	out      exactOutputs
	mem      memDelta
	layers   layerMetrics
	spans    []span
}

// runPass sets the workload up `setups` times (keeping the last copy),
// measures `blocks` blocks on it, checks the outputs and tears it down.
func runPass(wl *workload, opt options, tr *tracer, times setupTimes, setups, blocks int) (*pass, error) {
	per, warm := wl.blockRounds, wl.warmRounds
	if opt.short {
		per, warm = wl.shortBlockRounds, wl.shortWarmRounds
	}
	total := warm + blocks*per
	e := &env{seed: opt.seed, short: opt.short, outDir: opt.outDir, tr: tr, times: times}
	p := &pass{rounds: blocks * per}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			// Start every set-up from a collected heap, so peak RSS is one
			// copy's footprint however the collector timed the last one.
			debug.FreeOSMemory()
		}
		s := time.Now()
		var err error
		if inst, err = wl.setup(e, warm, total); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		p.setupSec = append(p.setupSec, time.Since(s).Seconds())
	}
	defer inst.close()

	runtime.GC() // discarded set-ups are not the measured window's garbage
	clock0 := inst.outputs().virtualTime
	tr.mark()
	mem0 := readMem()
	p.win = measure(inst, warm, blocks, per)
	p.mem = memSince(mem0, readMem())
	p.checks = inst.finish(total)
	p.out = inst.outputs()
	p.out.virtualTime -= clock0 // over the measured window only
	if tr.on() {
		p.layers = layerMetrics{}
		inst.layers(p.layers, p.rounds)
		p.spans = tr.all("run_round")
	}
	return p, nil
}

// result is everything one run reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64 // the run's contract metrics: end-to-end or per-layer
	defs      []metricDef
	checks    []check
	out       exactOutputs
	blocks    []block
	p95Beyond int // rounds of the quiet blocks slower than round_ms_p95
	p95Blocks int // quiet blocks whose 95th percentiles it is the median of
	refFloor  float64
	refP95    float64
	noisy     bool
	tracePath string
}

func run(opt options) (*result, error) {
	wl := findWorkload(opt.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	blocks := wl.blocksFor(opt.seconds)
	if opt.short {
		blocks = quietShare
	}
	times := setupTimes{}
	res := &result{workload: wl.name, metrics: map[string]float64{}}

	if !opt.trace {
		p, err := runPass(wl, opt, nil, times, setupRepeats, blocks)
		if err != nil {
			return nil, err
		}
		res.fill(p)
		res.defs = endToEnd
		quiet := p.win.quiet()
		best := pool(quiet)
		p50, _ := quantile(sortedCopy(best.lat), 0.50)
		p95, beyond := blockP95(quiet)
		res.p95Beyond, res.p95Blocks = beyond, len(quiet)
		res.metrics["setup_s"] = median(p.setupSec)
		res.metrics["rounds_per_s"] = best.rate()
		res.metrics["time_to_target_s"] = float64(p.rounds) / best.rate()
		res.metrics["round_ms_p50"] = p50 * 1e3
		res.metrics["round_ms_p95"] = p95 * 1e3
		res.metrics["cpu_ms_per_round"] = best.cpuSec / float64(len(best.lat)) * 1e3
		res.metrics["virtual_time_s"] = p.out.virtualTime
		res.metrics["rss_mb"] = peakRSSMB()
		return res, nil
	}

	// Traced run: a half-length untraced pass gives the reference rate
	// and the allocation counts, then a full-length traced pass gives the
	// layers (full length, so sim_tta's trajectory has the same room to
	// reach its target as in an untraced run).
	plain, err := runPass(wl, opt, nil, times, 1, max(quietShare, blocks/2))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPass(wl, opt, tr, times, 1, blocks)
	if err != nil {
		return nil, err
	}
	res.fill(traced)
	for _, c := range plain.checks {
		res.correct = res.correct && c.ok
	}
	res.failed += plain.win.failed
	res.defs = perLayer
	m := traced.layers
	for name, v := range times {
		m[name] = median(v) // timed in seconds
		if strings.HasSuffix(name, "_ms") {
			m[name] *= 1e3
		}
	}
	m["runtime.alloc_kb_per_round"] = float64(plain.mem.allocBytes) / 1024 / float64(plain.rounds)
	m["runtime.allocs_per_round"] = float64(plain.mem.mallocs) / float64(plain.rounds)
	m["runtime.gc_cycles"] = float64(plain.mem.gcCycles)
	m["trace.overhead_frac"] = 1 - pool(traced.win.quiet()).rate()/pool(plain.win.quiet()).rate()
	m["machine.ref_ms_floor"], m["machine.ref_ms_p95"] = res.refFloor, res.refP95
	for _, d := range perLayer {
		res.metrics[d.name] = m[d.name]
	}
	if res.tracePath, err = writeSpans(opt.outDir, wl.name, traced.spans); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *result) fill(p *pass) {
	r.attempted, r.failed = p.win.attempted, p.win.failed
	r.checks, r.out, r.blocks = p.checks, p.out, p.win.blocks
	r.refFloor, r.refP95, r.noisy = refStats(p.win.refMS)
	r.correct = r.failed == 0 && r.attempted > 0
	for _, c := range p.checks {
		r.correct = r.correct && c.ok
	}
}

// print writes the human-readable report, then the one-line JSON
// result the benchmark driver reads.
func (r *result) print() {
	fmt.Printf("== %s (GOMAXPROCS=%d, %d blocks of %d rounds) ==\n", r.workload, runtime.GOMAXPROCS(0), len(r.blocks), len(r.blocks[0].lat))
	fmt.Print("block rates (rounds/s):")
	for _, b := range r.blocks {
		fmt.Printf(" %.4g", b.rate())
	}
	fmt.Println()
	for _, d := range r.defs {
		note := ""
		if d.name == "round_ms_p95" && r.p95Beyond < tailSamples {
			note = fmt.Sprintf("  (median of %d blocks' p95; only %d of their %d rounds beyond)", r.p95Blocks, r.p95Beyond, r.p95Blocks*len(r.blocks[0].lat))
		}
		fmt.Printf("%-30s %14.6g %s%s\n", d.name, r.metrics[d.name], d.unit, note)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Printf("check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
	fmt.Printf("exact virtual_time_s %v\nexact fnv_global %016x\nexact fnv_selection %016x\n", r.out.virtualTime, r.out.globalFNV, r.out.selectFNV)
	fmt.Printf("machine ref kernel floor %.3f ms, p95 %.3f ms, noisy %v\n", r.refFloor, r.refP95, r.noisy)
	if r.tracePath != "" {
		fmt.Printf("spans written to %s\n", r.tracePath)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	// One P: on a shared 2-vCPU box a busy neighbour then costs a few
	// percent instead of a third (README, "Why one thread").
	runtime.GOMAXPROCS(1)

	var opt options
	var trace int
	var selfcheck bool
	flag.StringVar(&opt.workload, "workload", "all", "sim_tta | select_scale | net_flat_sync | net_hier_async | all")
	flag.Uint64Var(&opt.seed, "seed", 1, "generates every input: client data, latency profiles, drift batches, selection streams")
	flag.IntVar(&opt.seconds, "seconds", defaultSeconds, "measured window; scales the number of blocks (20 is the sized default)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&opt.short, "short", false, "smoke size: a few rounds per block, every check still runs")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for span files and checkpoint scratch")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run each workload twice on one seed and compare: exact outputs must match, timings must agree within their bounds")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 || opt.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case selfcheck:
		os.Exit(runSelfcheck(opt))
	case opt.workload == "all":
		os.Exit(runAll(opt))
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print()
	if !res.correct {
		os.Exit(1)
	}
}
