package shard

import (
	"testing"

	"haccs/internal/rounds"
)

// mkHello builds a Hello with c anonymous clients and the given
// one-hot-style representatives over dim 4.
func mkHello(id, nClients int, reps [][]float64, counts []int) Hello {
	clients := make([]rounds.ShardClient, nClients)
	for i := range clients {
		clients[i] = rounds.ShardClient{ID: id*1000 + i, Latency: 1}
	}
	return Hello{ShardID: id, Clients: clients, SketchDim: 4, Reps: reps, RepCounts: counts}
}

func oneHot(i int) []float64 {
	v := make([]float64, 4)
	v[i] = 1
	return v
}

// TestPlanBudgetsEqualClusterShare: the plan gives each distribution
// mode an equal slice of the budget, so a shard covering two modes
// with few clients outranks a shard covering one mode with many.
func TestPlanBudgetsEqualClusterShare(t *testing.T) {
	hellos := []Hello{
		mkHello(0, 20, [][]float64{oneHot(0), oneHot(1)}, []int{10, 10}),
		mkHello(1, 80, [][]float64{oneHot(2)}, []int{80}),
	}
	got := PlanBudgets(hellos, 6)
	// Three global clusters, two owned solely by shard 0: weights 2/3
	// vs 1/3 -> budgets 4 and 2.
	if got[0] != 4 || got[1] != 2 {
		t.Errorf("budgets = %v, want [4 2]", got)
	}
}

// TestPlanBudgetsSharedCluster: when two shards hold clients of the
// same mode, the mode's share splits by client mass.
func TestPlanBudgetsSharedCluster(t *testing.T) {
	hellos := []Hello{
		mkHello(0, 30, [][]float64{oneHot(0)}, []int{30}),
		mkHello(1, 10, [][]float64{oneHot(0)}, []int{10}),
	}
	got := PlanBudgets(hellos, 8)
	if got[0] != 6 || got[1] != 2 {
		t.Errorf("budgets = %v, want [6 2]", got)
	}
}

// TestPlanBudgetsSumAndCap: budgets always sum to min(k, capacity) and
// never exceed a shard's client count, regardless of skewed weights.
func TestPlanBudgetsSumAndCap(t *testing.T) {
	hellos := []Hello{
		mkHello(0, 2, [][]float64{oneHot(0), oneHot(1)}, []int{1, 1}),
		mkHello(1, 50, [][]float64{oneHot(2)}, []int{50}),
	}
	for _, k := range []int{1, 3, 10, 52, 100} {
		got := PlanBudgets(hellos, k)
		sum := 0
		for i, b := range got {
			sum += b
			if b > len(hellos[i].Clients) {
				t.Errorf("k=%d: shard %d budget %d exceeds %d clients", k, i, b, len(hellos[i].Clients))
			}
		}
		want := k
		if want > 52 {
			want = 52
		}
		if sum != want {
			t.Errorf("k=%d: budgets %v sum to %d, want %d", k, got, sum, want)
		}
	}
}

// TestPlanBudgetsFallback: shards without representatives degrade to
// client-count-proportional apportionment.
func TestPlanBudgetsFallback(t *testing.T) {
	hellos := []Hello{
		mkHello(0, 30, nil, nil),
		mkHello(1, 10, nil, nil),
	}
	got := PlanBudgets(hellos, 4)
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("budgets = %v, want [3 1]", got)
	}
}

// TestPlanBudgetsDeterministic: the plan is a pure function of its
// inputs.
func TestPlanBudgetsDeterministic(t *testing.T) {
	hellos := []Hello{
		mkHello(0, 7, [][]float64{oneHot(0), oneHot(3)}, []int{3, 4}),
		mkHello(1, 9, [][]float64{oneHot(1)}, []int{9}),
		mkHello(2, 5, [][]float64{oneHot(3)}, []int{5}),
	}
	a := PlanBudgets(hellos, 10)
	b := PlanBudgets(hellos, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic: %v vs %v", a, b)
		}
	}
}
