package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"haccs/internal/fl"
	"haccs/internal/simnet"
)

// The golden trajectories below were captured from the pre-refactor
// fl.Engine (the seed implementation with its hand-rolled round loop)
// at commit 68d6384, with GOLDEN=1 TestPrintGolden. The conformance
// test asserts the rounds-driver in-process path reproduces them
// bit-for-bit: clock, every History point, and an FNV-64a hash over the
// raw Float64bits of the final parameter vector. Any change to
// selection order, RNG stream derivation, aggregation arithmetic,
// worker fan-out, or clock accounting shows up here as a hard failure.

// goldenPoint is one evaluation, stored as raw IEEE-754 bit patterns so
// "equal" means bit-identical, not approximately close.
type goldenPoint struct {
	Round           int
	Time, Acc, Loss uint64
}

type goldenCase struct {
	name     string
	stratIdx int // buildStrategyForRun index
	dropout  bool
	clock    uint64
	params   uint64 // FNV-64a over Float64bits of FinalParams
	history  []goldenPoint
	selected int // total client selections across the run
}

var goldenCases = []goldenCase{
	{
		name:     "random",
		stratIdx: 0,
		dropout:  false,
		clock:    0x40520c6e7515f191,
		params:   0x5361f0c1a3acb909,
		history: []goldenPoint{
			{2, 0x4031ab36fcaf3cf8, 0x3fbe4cd84b04e271, 0x40042622c1d380e6},
			{4, 0x403dd4119f25282d, 0x3fbeb19686b67f4c, 0x4004eca0678b9f32},
			{6, 0x4046ae192b7af4d2, 0x3fc178385d34914d, 0x40036197f047ca39},
			{8, 0x404b43416bd444a6, 0x3fc63f26a0c0273f, 0x4003584cf982f95d},
			{10, 0x40520c6e7515f191, 0x3fc6716872e8fbf5, 0x4002f767c53b0483},
		},
		selected: 60,
	},
	{
		name:     "haccs-py",
		stratIdx: 3,
		dropout:  true,
		clock:    0x4043da461a92e4da,
		params:   0x31773a444a938918,
		history: []goldenPoint{
			{2, 0x401c7d9c9713026e, 0x3fb8e3c307fbb6a3, 0x4003bbf3618268c6},
			{4, 0x403049b7a6776043, 0x3fbdb7f42adb0f1a, 0x4003f97ca89e9447},
			{6, 0x4037f476f995d5b7, 0x3fbfca76f4aea096, 0x40039394a83f7112},
			{8, 0x403fb5c6a34e6ba8, 0x3fc6846acf7f3f1c, 0x4002f2b20c18d789},
			{10, 0x4043da461a92e4da, 0x3fc3ae6a05673690, 0x40022ff547506221},
		},
		selected: 60,
	},
}

// coreCounts are the (GOMAXPROCS, Parallelism) pairs every golden case
// runs at. Each pair must reproduce the same constants: the bits may not
// depend on the core count or on how many clients train at once.
var coreCounts = []struct{ procs, parallelism int }{{1, 1}, {4, 1}, {4, 2}, {4, 6}}

// goldenRun builds the canonical determinism workload and runs it with
// parallelism client workers (0 = GOMAXPROCS).
func goldenRun(t *testing.T, stratIdx int, withDropout bool, parallelism int) *fl.Result {
	t.Helper()
	const seed = 424242
	w := buildStandardWorkload("cifar", 10, Quick, seed)
	ec := defaultEngine(Quick, 0)
	ec.MaxRounds = 10
	ec.EvalEvery = 2
	ec.Record = true
	if withDropout {
		ec.Dropout = simnet.TransientDropout{
			Rate: 0.2,
			Seed: 9,
		}
	}
	s := buildStrategyForRun(w, stratIdx, 0, 0.75, seed)
	cfg := ec.ToFL(w, seed)
	cfg.Parallelism = parallelism
	return fl.NewEngine(cfg, w.Clients, s).Run()
}

func paramsHash(params []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range params {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDriverMatchesSeedTrajectory is the refactor's conformance guard:
// the engine, now an adapter over internal/rounds, must reproduce the
// seed engine's trajectory bit-for-bit on a fixed seed and config —
// with and without dropout, for both a stateless strategy (random) and
// the loss-feedback HACCS scheduler, at every pair in coreCounts.
func TestDriverMatchesSeedTrajectory(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			for _, cc := range coreCounts {
				t.Run(fmt.Sprintf("procs%d_par%d", cc.procs, cc.parallelism), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cc.procs))
					checkGolden(t, gc, goldenRun(t, gc.stratIdx, gc.dropout, cc.parallelism))
				})
			}
		})
	}
}

// checkGolden compares one run against its golden case, bit for bit.
func checkGolden(t *testing.T, gc goldenCase, res *fl.Result) {
	t.Helper()
	if got := math.Float64bits(res.Clock); got != gc.clock {
		t.Errorf("clock bits = %#x, want %#x (%v vs %v)",
			got, gc.clock, res.Clock, math.Float64frombits(gc.clock))
	}
	if got := paramsHash(res.FinalParams); got != gc.params {
		t.Errorf("final params hash = %#x, want %#x", got, gc.params)
	}
	if len(res.History) != len(gc.history) {
		t.Fatalf("history has %d points, want %d", len(res.History), len(gc.history))
	}
	for i, p := range res.History {
		want := gc.history[i]
		if p.Round != want.Round {
			t.Errorf("history[%d].Round = %d, want %d", i, p.Round, want.Round)
		}
		if got := math.Float64bits(p.Time); got != want.Time {
			t.Errorf("history[%d].Time bits = %#x, want %#x", i, got, want.Time)
		}
		if got := math.Float64bits(p.Acc); got != want.Acc {
			t.Errorf("history[%d].Acc bits = %#x, want %#x", i, got, want.Acc)
		}
		if got := math.Float64bits(p.Loss); got != want.Loss {
			t.Errorf("history[%d].Loss bits = %#x, want %#x", i, got, want.Loss)
		}
	}
	sel := 0
	for _, s := range res.Selected {
		sel += len(s)
	}
	if sel != gc.selected {
		t.Errorf("total selections = %d, want %d", sel, gc.selected)
	}
}

// TestPrintGolden regenerates the table above (GOLDEN=1 go test -run
// TestPrintGolden -v); paste its output into goldenCases after an
// intentional numerics change.
func TestPrintGolden(t *testing.T) {
	if os.Getenv("GOLDEN") == "" {
		t.Skip("set GOLDEN=1 to print golden trajectory data")
	}
	for _, tc := range []struct {
		name    string
		idx     int
		dropout bool
	}{{"random", 0, false}, {"haccs-py", 3, true}} {
		res := goldenRun(t, tc.idx, tc.dropout, 0)
		fmt.Printf("=== %s\n", tc.name)
		fmt.Printf("clock: %#x\n", math.Float64bits(res.Clock))
		fmt.Printf("paramsHash: %#x\n", paramsHash(res.FinalParams))
		for _, p := range res.History {
			fmt.Printf("{%d, %#x, %#x, %#x},\n", p.Round,
				math.Float64bits(p.Time), math.Float64bits(p.Acc), math.Float64bits(p.Loss))
		}
		sel := 0
		for _, s := range res.Selected {
			sel += len(s)
		}
		fmt.Printf("selectedTotal: %d\n", sel)
	}
}
