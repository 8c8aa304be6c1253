package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"haccs/internal/nn"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// memComponent is a trivial Snapshotter over one integer.
type memComponent struct{ v int }

func (m *memComponent) SnapshotState() ([]byte, error) {
	return []byte(fmt.Sprintf("%d", m.v)), nil
}

func (m *memComponent) RestoreState(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%d", &m.v)
	return err
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	a, b := &memComponent{v: 7}, &memComponent{v: 11}
	comps := []Component{{"a", a}, {"b", b}}
	snap, err := Capture(3, comps)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 3 || snap.Version != FormatVersion {
		t.Fatalf("snap header %+v", snap)
	}
	a.v, b.v = 0, 0
	if err := snap.Restore(comps); err != nil {
		t.Fatal(err)
	}
	if a.v != 7 || b.v != 11 {
		t.Fatalf("restored a=%d b=%d", a.v, b.v)
	}
}

func TestRestoreMissingComponent(t *testing.T) {
	snap, err := Capture(1, []Component{{"a", &memComponent{v: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	err = snap.Restore([]Component{{"a", &memComponent{}}, {"ghost", &memComponent{}}})
	if err == nil {
		t.Fatal("missing component accepted")
	}
}

func TestRestoreIgnoresExtraComponents(t *testing.T) {
	snap, err := Capture(1, []Component{{"a", &memComponent{v: 4}}, {"extra", &memComponent{v: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	a := &memComponent{}
	if err := snap.Restore([]Component{{"a", a}}); err != nil {
		t.Fatal(err)
	}
	if a.v != 4 {
		t.Fatalf("a=%d", a.v)
	}
}

func TestCaptureRejectsDuplicateNames(t *testing.T) {
	if _, err := Capture(0, []Component{{"x", &memComponent{}}, {"x", &memComponent{}}}); err == nil {
		t.Fatal("duplicate component names accepted")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	snap := &Snapshot{Version: FormatVersion + 1, Round: 1}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("future format version accepted")
	}
	if err := snap.Restore(nil); err == nil {
		t.Fatal("Restore accepted wrong version")
	}
}

func saveN(t *testing.T, s *Store, rounds ...int) {
	t.Helper()
	for _, r := range rounds {
		snap, err := Capture(r, []Component{{"mem", &memComponent{v: 100 + r}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	s, err := NewStore(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: %v", err)
	}
	saveN(t, s, 1, 2, 3)
	snap, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 3 {
		t.Fatalf("latest round %d", snap.Round)
	}
	mem := &memComponent{}
	if err := snap.Restore([]Component{{"mem", mem}}); err != nil {
		t.Fatal(err)
	}
	if mem.v != 103 {
		t.Fatalf("mem=%d", mem.v)
	}
	mid, err := s.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Round != 2 {
		t.Fatalf("Load(2) round %d", mid.Round)
	}
}

func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	saveN(t, s, 1, 2, 3, 4)
	if got := s.Rounds(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("retained rounds %v", got)
	}
	if _, err := s.Load(1); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("evicted round still loadable: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files on disk: %v", files)
	}
}

func TestStoreCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	saveN(t, s, 1, 2, 3)
	// Damage the newest snapshot: CRC verification must skip it and
	// serve round 2 instead.
	path := filepath.Join(dir, snapshotFileName(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 2 {
		t.Fatalf("fallback served round %d, want 2", snap.Round)
	}
	var ce *CorruptSnapshotError
	if _, err := s.Load(3); !errors.As(err, &ce) {
		t.Fatalf("Load(3) error %v, want CorruptSnapshotError", err)
	}
	// All snapshots damaged: ErrNoSnapshot.
	for _, r := range []int{1, 2} {
		if err := os.Truncate(filepath.Join(dir, snapshotFileName(r)), 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt store: %v", err)
	}
}

func TestStoreReopenSeesHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	saveN(t, s, 1, 2)
	// A second process (the resumed run) opens the same directory.
	s2, err := NewStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 2 {
		t.Fatalf("reopened latest %d", snap.Round)
	}
	// And keeps appending to the same history.
	saveN(t, s2, 3)
	if got := s2.Rounds(); len(got) != 3 {
		t.Fatalf("rounds after reopen+save: %v", got)
	}
}

func TestStoreSameRoundOverwrites(t *testing.T) {
	s, err := NewStore(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	saveN(t, s, 1, 1, 1)
	if got := s.Rounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rounds %v", got)
	}
}

func TestModelSnapshotterRoundTrip(t *testing.T) {
	arch := nn.Arch{Kind: "mlp", In: 4, Hidden: []int{3}, Classes: 2}
	live := arch.Build(stats.NewRNG(1)).ParamsVector()
	want := append([]float64(nil), live...)
	m := Model{
		Arch:   arch,
		Params: func() []float64 { return live },
		SetParams: func(p []float64) error {
			copy(live, p)
			return nil
		},
	}
	data, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		live[i] = -1
	}
	if err := m.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if live[i] != want[i] {
			t.Fatalf("param %d differs after restore", i)
		}
	}
	// A payload for a different architecture must be rejected.
	other := Model{Arch: nn.Arch{Kind: "mlp", In: 5, Hidden: []int{3}, Classes: 2}, Params: m.Params, SetParams: m.SetParams}
	bad, err := other.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var am *nn.ArchMismatchError
	if err := m.RestoreState(bad); !errors.As(err, &am) {
		t.Fatalf("wrong-arch payload: %v", err)
	}
}

// TestNilSaverZeroAllocs pins that disabled checkpointing adds zero
// allocations to the round hot path: the engine calls MaybeSave once
// per round whether or not a store is configured.
func TestNilSaverZeroAllocs(t *testing.T) {
	var s *Saver
	allocs := testing.AllocsPerRun(1000, func() {
		if saved, err := s.MaybeSave(5); saved || err != nil {
			t.Fatal("nil saver saved")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-saver MaybeSave allocates %v allocs/op, want 0", allocs)
	}
}

func TestSaverCadence(t *testing.T) {
	store, err := NewStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	mem := &memComponent{v: 1}
	s := NewSaver(store, 3, []Component{{"mem", mem}}, nil, nil, nil)
	var saved []int
	for r := 1; r <= 7; r++ {
		mem.v = r
		ok, err := s.MaybeSave(r)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			saved = append(saved, r)
		}
	}
	if len(saved) != 2 || saved[0] != 3 || saved[1] != 6 {
		t.Fatalf("saved at %v, want [3 6]", saved)
	}
	if got := store.Rounds(); len(got) != 2 || got[1] != 6 {
		t.Fatalf("store rounds %v", got)
	}
}

// TestSaverEmitsCheckpointSaved pins the save's trace event: one
// checkpoint_saved per save, carrying the round, the encoded size and
// the store's directory.
func TestSaverEmitsCheckpointSaved(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	sink := &telemetry.MemorySink{}
	s := NewSaver(store, 1, []Component{{"mem", &memComponent{v: 5}}}, sink, nil, nil)
	if err := s.Save(4); err != nil {
		t.Fatal(err)
	}
	evs := sink.Filter(telemetry.KindCheckpointSaved)
	if len(evs) != 1 || len(sink.Events()) != 1 {
		t.Fatalf("events %+v, want exactly one %s", sink.Events(), telemetry.KindCheckpointSaved)
	}
	if e := evs[0]; e.Round != 4 || e.Bytes <= 0 || e.Path != dir {
		t.Fatalf("checkpoint_saved = round %d, bytes %d, path %q; want round 4, bytes > 0, path %q", e.Round, e.Bytes, e.Path, dir)
	}
}
