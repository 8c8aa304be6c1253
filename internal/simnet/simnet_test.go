package simnet

import (
	"math"
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
	mask := NoDropout{}.Unavailable(5, 10)
	for i, down := range mask {
		if down {
			t.Fatalf("client %d unavailable under NoDropout", i)
		}
	}
}

func TestTransientDropoutRate(t *testing.T) {
	d := TransientDropout{Rate: 0.1, Seed: 7}
	down := 0
	epochs, n := 400, 50
	for e := 0; e < epochs; e++ {
		for _, m := range d.Unavailable(e, n) {
			if m {
				down++
			}
		}
	}
	rate := float64(down) / float64(epochs*n)
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("observed dropout rate %v, want ~0.1", rate)
	}
}

func TestTransientDropoutDeterministicPerEpoch(t *testing.T) {
	d := TransientDropout{Rate: 0.3, Seed: 9}
	a := d.Unavailable(3, 20)
	b := d.Unavailable(3, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same epoch produced different masks")
		}
	}
	// Different epochs should (almost surely) differ.
	c := d.Unavailable(4, 20)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("epochs 3 and 4 produced identical masks (suspicious)")
	}
}

func TestTransientDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransientDropout{Rate: 1.5, Seed: 1}.Unavailable(0, 5)
}

func TestPermanentDropout(t *testing.T) {
	d := PermanentDropout{Dropped: []int{1, 3}, FromEpoch: 2}
	// Before FromEpoch: everyone up.
	for _, m := range d.Unavailable(1, 5) {
		if m {
			t.Fatal("dropout before FromEpoch")
		}
	}
	// At and after FromEpoch: exactly the listed clients are down.
	for _, e := range []int{2, 10} {
		mask := d.Unavailable(e, 5)
		want := []bool{false, true, false, true, false}
		for i := range want {
			if mask[i] != want[i] {
				t.Fatalf("epoch %d mask %v", e, mask)
			}
		}
	}
	// Out-of-range indices are ignored.
	d2 := PermanentDropout{Dropped: []int{99}}
	for _, m := range d2.Unavailable(0, 3) {
		if m {
			t.Fatal("out-of-range drop index applied")
		}
	}
}
