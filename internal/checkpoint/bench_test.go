package checkpoint

import "testing"

// BenchmarkModelSnapshot is one save and one restore of the model
// component at net_flat_sync's size, 65 536 parameters: the part of a
// checkpoint round that grows with the model.
func BenchmarkModelSnapshot(b *testing.B) {
	live := make([]float64, 1<<16)
	for i := range live {
		live[i] = float64(i) / 7
	}
	m := Model{
		Params:    func() []float64 { return live },
		SetParams: func(p []float64) error { copy(live, p); return nil },
	}
	b.ReportAllocs()
	b.SetBytes(8 << 16)
	for b.Loop() {
		data, err := m.SnapshotState()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RestoreState(data); err != nil {
			b.Fatal(err)
		}
	}
}
