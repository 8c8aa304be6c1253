package cluster

import (
	"math"
	"testing"

	"haccs/internal/stats"
)

func TestSilhouetteKnownValues(t *testing.T) {
	// Two tight pairs far apart: near-perfect silhouette.
	xs := []float64{0, 0.1, 10, 10.1}
	m := pointsMatrix(xs)
	good := Silhouette(m, []int{0, 0, 1, 1})
	if good < 0.95 {
		t.Errorf("well-separated silhouette = %v, want ~1", good)
	}
	// Degenerate labelings score 0.
	if s := Silhouette(m, []int{0, 0, 0, 0}); s != 0 {
		t.Errorf("single-cluster silhouette = %v", s)
	}
	if s := Silhouette(m, []int{Noise, Noise, Noise, Noise}); s != 0 {
		t.Errorf("all-noise silhouette = %v", s)
	}
	// A bad split (cutting through one blob) scores much worse.
	bad := Silhouette(m, []int{0, 1, 1, 1})
	if bad >= good {
		t.Errorf("bad split silhouette %v >= good split %v", bad, good)
	}
}

func TestSilhouetteSingletonsContributeZero(t *testing.T) {
	xs := []float64{0, 0.1, 5, 10, 10.1}
	m := pointsMatrix(xs)
	withSingleton := Silhouette(m, []int{0, 0, Noise, 1, 1})
	// 4 of 5 points are perfectly clustered, one is a noise singleton:
	// the mean is pulled down by exactly the zero contribution.
	if withSingleton <= 0.5 || withSingleton >= 1 {
		t.Errorf("silhouette with singleton = %v, want in (0.5, 1)", withSingleton)
	}
}

func TestSilhouetteLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Silhouette(pointsMatrix([]float64{0, 1}), []int{0})
}

func TestSilhouetteBounds(t *testing.T) {
	// Any labeling scores within [-1, 1].
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	m := pointsMatrix(xs)
	labelings := [][]int{
		{0, 1, 0, 1, 0, 1, 0, 1}, // pathological interleaving
		{0, 0, 0, 0, 1, 1, 1, 1},
		{0, 1, 2, 3, 0, 1, 2, 3},
	}
	for _, ls := range labelings {
		s := Silhouette(m, ls)
		if s < -1 || s > 1 {
			t.Errorf("silhouette %v out of [-1,1] for %v", s, ls)
		}
	}
	// Interleaved labels must score worse than the contiguous split.
	if Silhouette(m, labelings[0]) >= Silhouette(m, labelings[1]) {
		t.Error("interleaved labeling scored as well as the natural split")
	}
}

func TestExtractBestSilhouetteTwoBlobs(t *testing.T) {
	xs, truth := twoBlobs(6, 6)
	m := pointsMatrix(xs)
	labels := OPTICS(m, 2, math.Inf(1)).ExtractBestSilhouette(m, 0)
	if NumClusters(labels) != 2 {
		t.Fatalf("found %d clusters: %v", NumClusters(labels), labels)
	}
	if RandIndex(labels, truth) != 1 {
		t.Errorf("imperfect recovery: %v", labels)
	}
}

func TestExtractBestSilhouetteFlatData(t *testing.T) {
	// The IID case: all pairwise distances nearly equal (as Hellinger
	// distances between large-sample uniform label histograms are). No
	// split can score well, so everything collapses to a single cluster.
	m := FromFunc(24, func(i, j int) float64 {
		return 0.05 + 0.004*float64((i*7+j*13)%11)/11
	})
	labels := OPTICS(m, 2, math.Inf(1)).ExtractBestSilhouette(m, 0)
	if NumClusters(labels) != 1 {
		t.Errorf("flat data produced %d clusters: %v", NumClusters(labels), labels)
	}
}

func TestExtractBestSilhouetteOverlappingGroups(t *testing.T) {
	// The case that defeats the single-gap heuristic: within-group
	// spread (0..0.5) overlaps the spacing pattern of cross-group jumps
	// (0.57+). Silhouette scoring still separates the five groups.
	var xs []float64
	var truth []int
	for g := 0; g < 5; g++ {
		for k := 0; k < 4; k++ {
			xs = append(xs, float64(g)*1.0+0.12*float64(k))
			truth = append(truth, g)
		}
	}
	m := pointsMatrix(xs)
	labels := OPTICS(m, 2, math.Inf(1)).ExtractBestSilhouette(m, 0)
	if NumClusters(labels) != 5 {
		t.Fatalf("found %d clusters: %v", NumClusters(labels), labels)
	}
	if ExactRecovery(labels, truth) != 1 {
		t.Errorf("imperfect recovery: %v", labels)
	}
}

func TestExtractBestSilhouetteThreshold(t *testing.T) {
	// With an absurdly high threshold, even clean structure is rejected
	// and a single cluster comes back.
	xs, _ := twoBlobs(5, 5)
	m := pointsMatrix(xs)
	labels := OPTICS(m, 2, math.Inf(1)).ExtractBestSilhouette(m, 0.9999)
	if NumClusters(labels) != 1 {
		t.Errorf("threshold 0.9999 still split: %v", labels)
	}
}

func TestExtractBestSilhouetteTinyInput(t *testing.T) {
	m := pointsMatrix([]float64{0})
	labels := OPTICS(m, 1, math.Inf(1)).ExtractBestSilhouette(m, 0)
	if len(labels) != 1 {
		t.Fatalf("labels %v", labels)
	}
}

// TestSilhouetteDeterministic pins the order of Silhouette's sum: the
// groups in ascending label order, each group's points in index order.
// The labeling has ten groups and one noise point, and the sum's bits
// depend on the group order, so a walk in map order disagrees with the
// reference on most calls.
func TestSilhouetteDeterministic(t *testing.T) {
	const groups = 10
	rng := stats.NewRNG(11)
	var xs []float64
	var labels []int
	for g := 0; g < groups; g++ {
		for k := 0; k < 3+g%3; k++ {
			xs = append(xs, float64(g)+rng.Float64())
			labels = append(labels, (g*7)%groups)
		}
	}
	xs = append(xs, 4.5)
	labels = append(labels, Noise)
	m := pointsMatrix(xs)

	// Reference: each point's s(i), as Silhouette defines it.
	members := make([][]int, groups)
	for i, l := range labels {
		if l != Noise {
			members[l] = append(members[l], i)
		}
	}
	noise := len(xs) - 1
	dist := func(i int, js []int) float64 {
		d := 0.0
		for _, j := range js {
			if j != i {
				d += m.At(i, j)
			}
		}
		return d
	}
	sum := func(order []int) float64 {
		total := 0.0
		for _, g := range order {
			for _, i := range members[g] {
				a := dist(i, members[g]) / float64(len(members[g])-1)
				b := m.At(i, noise)
				for h := range members {
					if h != g {
						b = math.Min(b, dist(i, members[h])/float64(len(members[h])))
					}
				}
				total += (b - a) / math.Max(a, b)
			}
		}
		return total / float64(len(xs))
	}
	asc, desc := make([]int, groups), make([]int, groups)
	for g := range asc {
		asc[g], desc[g] = g, groups-1-g
	}
	want := sum(asc)
	if math.Float64bits(want) == math.Float64bits(sum(desc)) {
		t.Fatal("labeling does not make the sum order-sensitive; pick other data")
	}
	for call := 0; call < 50; call++ {
		if got := Silhouette(m, labels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Silhouette = %v (%#x), want %v (%#x) summed in label order",
				call, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
