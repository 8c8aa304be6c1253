package simnet

import (
	"strings"
	"testing"
)

func transient(rate float64, seed uint64) TransientDropout {
	return TransientDropout{
		Rate: rate,
		Seed: seed,
	}
}

// TestTransientDropoutInvalidRate pins that rates outside [0,1] are a
// loud programming error, not a silently clamped probability.
func TestTransientDropoutInvalidRate(t *testing.T) {
	for _, rate := range []float64{-0.01, -1, 1.0001, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			transient(rate, 1).Unavailable(0, 10)
		}()
		if _, err := transient(rate, 1).SnapshotState(); err == nil {
			t.Errorf("SnapshotState accepted rate %v", rate)
		}
	}
	// Boundary rates are valid.
	for _, rate := range []float64{0, 1} {
		mask := transient(rate, 1).Unavailable(0, 10)
		for i, down := range mask {
			if down != (rate == 1) {
				t.Errorf("rate %v client %d down=%v", rate, i, down)
			}
		}
	}
}

// TestTransientDropoutMaskIdenticalAcrossStrategies pins the property
// the paper's cross-strategy comparison rests on: the per-epoch mask
// is a pure function of (Seed, epoch, n), so independently constructed
// models with the same seed — one per strategy under comparison — see
// the identical dropout schedule, regardless of evaluation order or
// how often a mask is recomputed.
func TestTransientDropoutMaskIdenticalAcrossStrategies(t *testing.T) {
	const n, epochs = 40, 20
	strategies := 5
	models := make([]TransientDropout, strategies)
	for i := range models {
		models[i] = transient(0.25, 99) // fresh value per "strategy run"
	}
	for epoch := 0; epoch < epochs; epoch++ {
		want := models[0].Unavailable(epoch, n)
		sawDown := false
		for s := 1; s < strategies; s++ {
			got := models[s].Unavailable(epoch, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("epoch %d client %d: strategy %d mask %v, strategy 0 mask %v", epoch, i, s, got[i], want[i])
				}
				sawDown = sawDown || got[i]
			}
		}
		// Re-querying the same epoch must also be stable (no hidden
		// stream advance inside the model).
		again := models[0].Unavailable(epoch, n)
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("epoch %d not idempotent at client %d", epoch, i)
			}
		}
		_ = sawDown
	}
}

// TestTransientDropoutSnapshotVerifies covers the checkpoint surface:
// the payload round-trips against an identical configuration and
// rejects a different rate or seed.
func TestTransientDropoutSnapshotVerifies(t *testing.T) {
	d := transient(0.1, 42)
	data, err := d.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := transient(0.1, 42).RestoreState(data); err != nil {
		t.Fatalf("identical config rejected: %v", err)
	}
	if err := transient(0.2, 42).RestoreState(data); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("different rate accepted: %v", err)
	}
	if err := transient(0.1, 43).RestoreState(data); err == nil {
		t.Fatal("different seed accepted")
	}
	if err := transient(0.1, 42).RestoreState([]byte("garbage")); err == nil {
		t.Fatal("garbage payload accepted")
	}
}
