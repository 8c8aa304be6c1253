package rounds

import (
	"fmt"
	"slices"
	"testing"

	"haccs/internal/simnet"
	"haccs/internal/stats"
)

// refMask is the per-epoch dropout mask each model drew when the round
// driver still asked for one: TransientDropout's one uniform per client
// in ID order, PermanentDropout's listed IDs from FromEpoch on.
func refMask(m simnet.DropoutModel, epoch, n int) []bool {
	mask := make([]bool, n)
	switch d := m.(type) {
	case simnet.TransientDropout:
		r := stats.NewRNG(d.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
		for i := range mask {
			mask[i] = r.Float64() < d.Rate
		}
	case simnet.PermanentDropout:
		if epoch >= d.FromEpoch {
			for _, i := range d.Dropped {
				if i >= 0 && i < n {
					mask[i] = true
				}
			}
		}
	}
	return mask
}

// refAvailability is begin's availability pass as it stood before the
// mask was kept in place: every client, every round, from the dropout
// mask, the dead mask and the busy mask.
func refAvailability(mask, dead, busy []bool) (available []bool, down []int) {
	available = make([]bool, len(dead))
	for i := range available {
		if mask[i] || dead[i] {
			down = append(down, i)
			available[i] = false
		} else {
			available[i] = busy == nil || !busy[i]
		}
	}
	return available, down
}

// availabilityChecker is a strategy that, on every Select, compares the
// driver's in-place availability and its down list with the full-mask
// reference, then picks up to k available clients at random.
type availabilityChecker struct {
	t      *testing.T
	c      *roundCore
	model  simnet.DropoutModel
	rng    *stats.RNG
	what   string
	checks int
}

func (a *availabilityChecker) Select(round int, available []bool, k int) []int {
	a.t.Helper()
	want, wantDown := refAvailability(refMask(a.model, round, len(available)), a.c.dead, a.c.busy)
	if !slices.Equal(available, want) {
		for i := range want {
			if available[i] != want[i] {
				a.t.Fatalf("%s round %d: client %d available %v, the full-mask pass says %v", a.what, round, i, available[i], want[i])
			}
		}
	}
	if !slices.Equal(a.c.down, wantDown) && len(a.c.down)+len(wantDown) > 0 {
		a.t.Fatalf("%s round %d: down %v, the full-mask pass says %v", a.what, round, a.c.down, wantDown)
	}
	a.checks++
	var ids []int
	for id, ok := range available {
		if ok {
			ids = append(ids, id)
		}
	}
	a.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:min(k, len(ids))]
}

func (*availabilityChecker) Update(int, []int, []float64) {}

// TestAvailabilityMatchesFullMask runs the sync and async drivers over
// seeded schedules — transient dropout, permanent dropout from a later
// epoch, none — with clients dying mid-run, the async busy set, and a
// restore that rewinds the dead (and busy) masks to an earlier
// snapshot, and checks every round's available mask and down list (the
// Unavailable event, counter and fleet observation) against the
// full-mask reference.
func TestAvailabilityMatchesFullMask(t *testing.T) {
	const n, rounds, snapAt, restoreAt = 40, 60, 20, 35
	models := []simnet.DropoutModel{
		simnet.NoDropout{},
		simnet.TransientDropout{Rate: 0.2, Seed: 5},
		simnet.TransientDropout{Rate: 0.6, Seed: 6},
		simnet.PermanentDropout{Dropped: []int{9, 3, 31, 3, 77}, FromEpoch: 10},
	}
	for mi, model := range models {
		for _, async := range []bool{false, true} {
			what := fmt.Sprintf("model %d (%T) async %v", mi, model, async)
			t.Run(what, func(t *testing.T) {
				gen := stats.NewRNG(uint64(100 + mi))
				lat, samples := make([]float64, n), make([]int, n)
				for i := range lat {
					lat[i], samples[i] = float64(1+gen.Intn(9)), 1+gen.Intn(5)
				}
				fakes, tr := newFakeCluster(lat, samples)
				// Deaths at scattered rounds, some before the snapshot
				// (the restore keeps them) and some between the snapshot
				// and the restore (the restore revives them).
				for _, id := range []int{2, 11, 17, 30, 38} {
					fakes[id].fail = map[int]bool{}
					for r := 0; r < rounds; r++ {
						if r >= 5+id {
							fakes[id].fail[r] = true
						}
					}
				}
				check := &availabilityChecker{t: t, model: model, rng: stats.NewRNG(uint64(200 + mi)), what: what}
				cfg := Config{ClientsPerRound: 8, Dropout: model}
				var r Runner
				var snap func() ([]byte, error)
				var restore func([]byte) error
				if async {
					d := NewAsyncDriver(cfg, AsyncConfig{BufferK: 3}, tr, check, make([]float64, testDim))
					check.c, r, snap, restore = &d.roundCore, d, d.SnapshotState, d.RestoreState
				} else {
					d := NewDriver(cfg, tr, check, make([]float64, testDim))
					check.c, r, snap, restore = &d.roundCore, d, d.SnapshotState, d.RestoreState
				}
				var saved []byte
				deadAtRestore := 0
				for round := 0; round < rounds; round++ {
					r.RunRound(round)
					if round == snapAt {
						var err error
						if saved, err = snap(); err != nil {
							t.Fatal(err)
						}
					}
					if round == restoreAt {
						deadAtRestore = len(check.c.deadIDs)
						if err := restore(saved); err != nil {
							t.Fatal(err)
						}
					}
				}
				if check.checks < rounds/2 {
					t.Fatalf("only %d of %d rounds reached Select", check.checks, rounds)
				}
				if deadAtRestore == 0 {
					t.Fatal("no client had died by the restore")
				}
			})
		}
	}
}
