package checkpoint_test

import (
	"runtime"
	"testing"

	"haccs/internal/checkpoint"
)

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gobAhead is the most encoding/gob allocates ahead of the bytes actually
// present, for a message length or a slice length it has not yet read
// (the standard library's internal/saferio chunk).
const gobAhead = 10 << 20

// FuzzSnapshotDecode drives a stored snapshot's read path — bytes →
// Decode → the model component's RestoreState — on a model of fixed
// dimension. Nothing may panic, and every failure comes back as an
// error. Nothing is allocated for an announced vector longer than the
// model: RestoreState pins the trailer's count to the dimension before
// its buffer grows, so a restore costs the model's own size plus what
// gob may allocate for the arch stamp, never the 512 MiB of the largest
// count a frame can carry. Decode is gob alone, held to gob's budget.
// The committed seeds under testdata/fuzz are a version 1 and a version
// 2 snapshot of the fixture run, a version 2 snapshot cut inside the
// model's float trailer, one whose model announces 24 floats for 23, and
// one whose component map announces 2^20 entries (≈ 96 MB if gob sized
// the map by it).
func FuzzSnapshotDecode(f *testing.F) {
	dim := len(fixtureParams())
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		snap, err := checkpoint.Decode(data)
		if grew := totalAlloc() - before; grew > 2*gobAhead+1<<16+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		payload, ok := snap.Components[checkpoint.ModelComponent]
		if !ok {
			return
		}
		live := make([]float64, dim)
		m := checkpoint.Model{
			Arch:   fixtureArch,
			Params: func() []float64 { return live },
			SetParams: func(p []float64) error {
				if len(p) != dim {
					t.Fatalf("restore handed over %d params for %d", len(p), dim)
				}
				copy(live, p)
				return nil
			},
		}
		before = totalAlloc()
		m.RestoreState(payload)
		if grew := totalAlloc() - before; grew > gobAhead+1<<16+8*uint64(dim)+64*uint64(len(payload)) {
			t.Fatalf("restoring a %d-byte model payload allocated %d", len(payload), grew)
		}
	})
}
