package simnet

import (
	"math"
	"slices"
	"testing"

	"haccs/internal/stats"
)

func TestCategoryString(t *testing.T) {
	want := map[Category]string{Fast: "fast", Medium: "medium", Slow: "slow", VerySlow: "very-slow"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if Category(99).String() != "Category(99)" {
		t.Errorf("unknown category string %q", Category(99).String())
	}
}

func TestCategoryProbabilitiesSumToOne(t *testing.T) {
	sum := 0.0
	for _, p := range CategoryProbabilities {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("category probabilities sum to %v", sum)
	}
}

func TestSampleCategoryDistribution(t *testing.T) {
	r := stats.NewRNG(1)
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[SampleCategory(r)]++
	}
	for c, want := range CategoryProbabilities {
		got := float64(counts[c]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %v frequency %v, want ~%v", Category(c), got, want)
		}
	}
}

func TestProfileForCategoryRanges(t *testing.T) {
	r := stats.NewRNG(2)
	cases := []struct {
		c          Category
		cmLo, cmHi float64
		bwLo, bwHi float64
	}{
		{Fast, 1.0, 1.0, 75, 100},
		{Medium, 1.5, 2.0, 50, 75},
		{Slow, 2.0, 2.5, 25, 50},
		{VerySlow, 2.5, 3.0, 1, 25},
	}
	for _, tc := range cases {
		for i := 0; i < 500; i++ {
			p := ProfileForCategory(tc.c, r)
			if p.Category != tc.c {
				t.Fatalf("category not preserved")
			}
			if p.ComputeMultiplier < tc.cmLo || p.ComputeMultiplier > tc.cmHi {
				t.Fatalf("%v compute multiplier %v outside [%v,%v]", tc.c, p.ComputeMultiplier, tc.cmLo, tc.cmHi)
			}
			if p.BandwidthMbps < tc.bwLo || p.BandwidthMbps > tc.bwHi {
				t.Fatalf("%v bandwidth %v outside [%v,%v]", tc.c, p.BandwidthMbps, tc.bwLo, tc.bwHi)
			}
			if p.NetLatencySec < 0.020 || p.NetLatencySec > 0.200 {
				t.Fatalf("%v network latency %v outside [20ms,200ms]", tc.c, p.NetLatencySec)
			}
		}
	}
}

func TestProfileForCategoryInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProfileForCategory(Category(9), stats.NewRNG(1))
}

func TestSampleProfiles(t *testing.T) {
	r := stats.NewRNG(3)
	ps := SampleProfiles(50, r)
	if len(ps) != 50 {
		t.Fatalf("got %d profiles", len(ps))
	}
}

func TestRoundLatencyComposition(t *testing.T) {
	p := Profile{Category: Medium, ComputeMultiplier: 2, BandwidthMbps: 50, NetLatencySec: 0.1}
	// 1 second of compute, 1 MB model:
	// compute 2s + transfer 2*1e6*8/(50e6) = 0.32s + rtt 0.2s.
	got := p.RoundLatency(1, 1_000_000)
	want := 2 + 0.32 + 0.2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RoundLatency = %v, want %v", got, want)
	}
}

func TestRoundLatencyMonotonic(t *testing.T) {
	r := stats.NewRNG(4)
	fast := ProfileForCategory(Fast, r)
	slow := ProfileForCategory(VerySlow, r)
	// Same network parameters to isolate compute ordering.
	slow.BandwidthMbps = fast.BandwidthMbps
	slow.NetLatencySec = fast.NetLatencySec
	if fast.RoundLatency(5, 1000) >= slow.RoundLatency(5, 1000) {
		t.Error("fast device not faster than very-slow at equal network")
	}
	// More data -> more time.
	if fast.RoundLatency(1, 1000) >= fast.RoundLatency(2, 1000) {
		t.Error("latency not increasing in compute time")
	}
	if fast.RoundLatency(1, 1000) >= fast.RoundLatency(1, 10_000_000) {
		t.Error("latency not increasing in model size")
	}
}

func TestRoundLatencyNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Profile{BandwidthMbps: 10}.RoundLatency(-1, 0)
}

func TestNoDropout(t *testing.T) {
	if down := (NoDropout{}).Down(5, 10, nil); len(down) != 0 {
		t.Fatalf("clients %v down under NoDropout", down)
	}
	buf := make([]int, 0, 4)
	if got := testing.AllocsPerRun(10, func() { buf = NoDropout{}.Down(5, 20000, buf[:0]) }); got != 0 {
		t.Fatalf("NoDropout.Down allocates %v times, want 0", got)
	}
}

func TestTransientDropoutRate(t *testing.T) {
	d := TransientDropout{Rate: 0.1, Seed: 7}
	down := 0
	epochs, n := 400, 50
	for e := 0; e < epochs; e++ {
		got := d.Down(e, n, nil)
		if want := refTransientMask(d, e, n); !slices.Equal(maskOf(got, n), want) {
			t.Fatalf("epoch %d: downs %v, the per-client draw gives %v", e, got, want)
		}
		down += len(got)
	}
	rate := float64(down) / float64(epochs*n)
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("observed dropout rate %v, want ~0.1", rate)
	}
}

func TestTransientDropoutDeterministicPerEpoch(t *testing.T) {
	d := TransientDropout{Rate: 0.3, Seed: 9}
	a := d.Down(3, 20, nil)
	b := d.Down(3, 20, []int{-1})
	if !slices.Equal(a, b[1:]) || b[0] != -1 {
		t.Fatalf("same epoch produced different downs: %v and %v", a, b)
	}
	// Different epochs should (almost surely) differ.
	if c := d.Down(4, 20, nil); slices.Equal(a, c) {
		t.Error("epochs 3 and 4 produced identical downs (suspicious)")
	}
}

func TestTransientDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransientDropout{Rate: 1.5, Seed: 1}.Down(0, 5, nil)
}

func TestPermanentDropout(t *testing.T) {
	d := PermanentDropout{Dropped: []int{3, 1, 3}, FromEpoch: 2}
	// Before FromEpoch: everyone up.
	if down := d.Down(1, 5, nil); len(down) != 0 {
		t.Fatalf("dropout before FromEpoch: %v", down)
	}
	// At and after FromEpoch: exactly the listed clients are down,
	// ascending and once each, appended after what dst held.
	for _, e := range []int{2, 10} {
		if down := d.Down(e, 5, []int{7}); !slices.Equal(down, []int{7, 1, 3}) {
			t.Fatalf("epoch %d downs %v, want [7 1 3]", e, down)
		}
	}
	if !slices.Equal(d.Dropped, []int{3, 1, 3}) {
		t.Fatalf("Down reordered the configured list: %v", d.Dropped)
	}
	// Out-of-range indices are ignored.
	d2 := PermanentDropout{Dropped: []int{99, -1}}
	if down := d2.Down(0, 3, nil); len(down) != 0 {
		t.Fatalf("out-of-range drop index applied: %v", down)
	}
}

// refTransientMask is the per-epoch mask TransientDropout drew before it
// reported lists: one uniform per client in ID order, down below Rate.
func refTransientMask(d TransientDropout, epoch, n int) []bool {
	r := stats.NewRNG(d.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = r.Float64() < d.Rate
	}
	return mask
}

// maskOf turns a down list into an n-bool mask.
func maskOf(down []int, n int) []bool {
	mask := make([]bool, n)
	for _, id := range down {
		mask[id] = true
	}
	return mask
}
