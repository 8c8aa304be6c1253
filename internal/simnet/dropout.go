package simnet

import (
	"fmt"
	"math"
	"slices"

	"haccs/internal/stats"
)

// DropoutModel decides which clients are unavailable in a given epoch.
// The paper exercises three regimes: no dropout (scheduling experiments),
// per-epoch transient dropout with recovery (§V-C), and permanent dropout
// of individuals or whole groups (the §III motivation experiment).
//
// A model reports a list, not a mask, so that a round with few downs
// costs what it lists: the round driver keeps its availability mask in
// place and edits only the entries that changed (rounds.roundCore).
type DropoutModel interface {
	// Down appends to dst the IDs in [0, n) of the clients that are down
	// during the given epoch, ascending and each once, and returns the
	// extended slice. It must not retain dst.
	Down(epoch, n int, dst []int) []int
}

// NoDropout keeps every client available in every epoch.
type NoDropout struct{}

// Down implements DropoutModel: nobody is down, and nothing is allocated.
func (NoDropout) Down(epoch, n int, dst []int) []int { return dst }

// TransientDropout marks each client unavailable independently with
// probability Rate at the start of each epoch; clients recover at the
// end of the epoch (paper §V-C uses Rate = 0.10). The downs of an epoch
// are drawn from a stream derived from Seed and the epoch number only, so
// every selection strategy sees the identical dropout schedule — the
// paper seeds its RNGs the same way across strategies.
type TransientDropout struct {
	Rate float64
	Seed uint64
}

// Down implements DropoutModel. It draws one uniform per client, in ID
// order, whatever the rate, so the stream is the same at every rate.
func (t TransientDropout) Down(epoch, n int, dst []int) []int {
	if t.Rate < 0 || t.Rate > 1 {
		panic("simnet: TransientDropout rate out of [0,1]")
	}
	r := stats.NewRNG(t.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		if r.Float64() < t.Rate {
			dst = append(dst, i)
		}
	}
	return dst
}

// SnapshotState implements checkpoint.Snapshotter. The per-epoch downs
// are a pure function of (Seed, epoch), so the schedule carries no
// mutable state — the payload records the configuration so a resumed
// run can verify it reproduces the identical dropout sequence.
func (t TransientDropout) SnapshotState() ([]byte, error) {
	if t.Rate < 0 || t.Rate > 1 {
		return nil, fmt.Errorf("simnet: TransientDropout rate %v out of [0,1]", t.Rate)
	}
	return fmt.Appendf(nil, "transient v1 rate=%x seed=%d", math.Float64bits(t.Rate), t.Seed), nil
}

// RestoreState implements checkpoint.Snapshotter: it verifies (bit
// for bit) that the configured schedule matches the snapshotted one
// rather than mutating anything, since the schedule is stateless.
func (t TransientDropout) RestoreState(data []byte) error {
	var rateBits, seed uint64
	if _, err := fmt.Sscanf(string(data), "transient v1 rate=%x seed=%d", &rateBits, &seed); err != nil {
		return fmt.Errorf("simnet: decode TransientDropout state %q: %w", data, err)
	}
	if rateBits != math.Float64bits(t.Rate) || seed != t.Seed {
		return fmt.Errorf("simnet: snapshot dropout (rate=%v seed=%d) does not match configured (rate=%v seed=%d)",
			math.Float64frombits(rateBits), seed, t.Rate, t.Seed)
	}
	return nil
}

// PermanentDropout removes a fixed set of clients from a given epoch
// onward, never recovering them — the §III motivation experiment drops
// 80 of 100 devices permanently (randomly or by whole groups).
type PermanentDropout struct {
	Dropped   []int
	FromEpoch int
}

// Down implements DropoutModel: from FromEpoch on, the listed IDs that
// lie in [0, n), sorted and without repeats.
func (p PermanentDropout) Down(epoch, n int, dst []int) []int {
	if epoch < p.FromEpoch {
		return dst
	}
	start := len(dst)
	for _, i := range p.Dropped {
		if i >= 0 && i < n {
			dst = append(dst, i)
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

var (
	_ DropoutModel = NoDropout{}
	_ DropoutModel = TransientDropout{}
	_ DropoutModel = PermanentDropout{}
)
