package nn_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"haccs/internal/checkpoint"
	"haccs/internal/nn"
	"haccs/internal/stats"
)

// The checkpoint contract of nn's networks, kept through the checkpoint
// package's model component. Every case runs over both payload forms a
// stored snapshot can hold: v2, what this build writes, and v1, a gob
// of nn's former Checkpoint struct, which checkpoint.Decode upgrades on
// read.

// legacyCheckpoint writes v1 payloads; gob matches it by field name.
type legacyCheckpoint struct {
	Arch   nn.Arch
	Params []float64
	Round  int
}

type payloadForm struct {
	name    string
	version int
	payload func(t *testing.T, arch nn.Arch, params []float64) []byte
}

var forms = []payloadForm{
	{"v1", 1, func(t *testing.T, arch nn.Arch, params []float64) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(legacyCheckpoint{Arch: arch, Params: params, Round: 7}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}},
	{"v2", checkpoint.FormatVersion, func(t *testing.T, arch nn.Arch, params []float64) []byte {
		data, err := checkpoint.Model{Arch: arch, Params: func() []float64 { return params }}.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}},
}

// restore stores payload as the model component of a snapshot of the
// form's version, then encodes, decodes and restores that snapshot into
// live, a model of arch.
func restore(t *testing.T, f payloadForm, payload []byte, arch nn.Arch, live []float64) error {
	t.Helper()
	snap := &checkpoint.Snapshot{Version: f.version, Round: 1, Components: map[string][]byte{checkpoint.ModelComponent: payload}}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = checkpoint.Decode(data); err != nil {
		return err
	}
	return snap.Restore([]checkpoint.Component{{Name: checkpoint.ModelComponent, S: checkpoint.Model{
		Arch:      arch,
		Params:    func() []float64 { return live },
		SetParams: func(p []float64) error { copy(live, p); return nil },
	}}})
}

// roundTrip restores a network of arch into a zeroed vector, per form,
// and requires every parameter back bit for bit.
func roundTrip(t *testing.T, arch nn.Arch) {
	want := arch.Build(stats.NewRNG(1)).ParamsVector()
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			live := make([]float64, len(want))
			if err := restore(t, f, f.payload(t, arch, want), arch, live); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(live[i]) != math.Float64bits(want[i]) {
					t.Fatalf("param %d: %v after restore, want %v", i, live[i], want[i])
				}
			}
		})
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	roundTrip(t, nn.Arch{Kind: "mlp", In: 6, Hidden: []int{5}, Classes: 3})
}

func TestCheckpointLeNet(t *testing.T) {
	roundTrip(t, nn.Arch{Kind: "lenet", Channels: 1, Height: 16, Width: 16, Classes: 4, ConvFilters: [2]int{2, 3}})
}

func TestCheckpointArchMismatch(t *testing.T) {
	arch := nn.Arch{Kind: "mlp", In: 6, Hidden: []int{5}, Classes: 3}
	other := nn.Arch{Kind: "mlp", In: 6, Hidden: []int{7}, Classes: 3}
	live := make([]float64, arch.Build(stats.NewRNG(1)).NumParams())
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			var am *nn.ArchMismatchError
			if err := restore(t, f, f.payload(t, other, other.Build(stats.NewRNG(1)).ParamsVector()), arch, live); !errors.As(err, &am) {
				t.Fatalf("mismatched architecture: err %v, want *nn.ArchMismatchError", err)
			}
		})
	}
}

func TestCheckpointCorruptStream(t *testing.T) {
	arch := nn.Arch{Kind: "mlp", In: 2, Classes: 2}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			if err := restore(t, f, []byte("garbage"), arch, make([]float64, 6)); err == nil {
				t.Fatal("garbage accepted")
			}
		})
	}
}

// TestLoadCheckpointTypedErrors pins the error taxonomy of the restore
// path: stream-level damage (truncation, garbage, empty input) wraps
// checkpoint.ErrCorruptModel, while structurally valid payloads for the
// wrong model surface an *nn.ArchMismatchError carrying both sides.
func TestLoadCheckpointTypedErrors(t *testing.T) {
	arch := nn.Arch{Kind: "mlp", In: 6, Hidden: []int{5}, Classes: 3}
	params := arch.Build(stats.NewRNG(1)).ParamsVector()
	wrongArch := nn.Arch{Kind: "mlp", In: 6, Hidden: []int{7}, Classes: 3}
	cases := []struct {
		name        string
		payload     func(f payloadForm) []byte
		wantCorrupt bool
		wantArch    bool
	}{
		{"empty", func(payloadForm) []byte { return nil }, true, false},
		{"garbage", func(payloadForm) []byte { return []byte("not a gob stream at all") }, true, false},
		{"truncated", func(f payloadForm) []byte { p := f.payload(t, arch, params); return p[:len(p)/2] }, true, false},
		{"single_byte", func(f payloadForm) []byte { return f.payload(t, arch, params)[:1] }, true, false},
		{"wrong_arch", func(f payloadForm) []byte {
			return f.payload(t, wrongArch, wrongArch.Build(stats.NewRNG(1)).ParamsVector())
		}, false, true},
		{"short_param_vector", func(f payloadForm) []byte { return f.payload(t, arch, make([]float64, 5)) }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range forms {
				t.Run(f.name, func(t *testing.T) {
					err := restore(t, f, tc.payload(f), arch, make([]float64, len(params)))
					if err == nil {
						t.Fatal("bad payload accepted")
					}
					if got := errors.Is(err, checkpoint.ErrCorruptModel); got != tc.wantCorrupt {
						t.Errorf("errors.Is(err, ErrCorruptModel) = %v, want %v (err: %v)", got, tc.wantCorrupt, err)
					}
					var am *nn.ArchMismatchError
					if got := errors.As(err, &am); got != tc.wantArch {
						t.Fatalf("errors.As(err, *ArchMismatchError) = %v, want %v (err: %v)", got, tc.wantArch, err)
					}
					if tc.name == "wrong_arch" && (!am.Want.Equal(arch) || am.Got.Equal(arch)) {
						t.Errorf("ArchMismatchError sides wrong: got %+v want %+v", am.Got, am.Want)
					}
				})
			}
		})
	}
}

// TestDecodeCheckpointParamCountPin: the live vector's length pins the
// stored count, and a mismatch carries both counts.
func TestDecodeCheckpointParamCountPin(t *testing.T) {
	arch := nn.Arch{Kind: "mlp", In: 4, Hidden: []int{3}, Classes: 2}
	params := arch.Build(stats.NewRNG(4)).ParamsVector()
	n := len(params)
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			payload := f.payload(t, arch, params)
			if err := restore(t, f, payload, arch, make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			var am *nn.ArchMismatchError
			if err := restore(t, f, payload, arch, make([]float64, n+1)); !errors.As(err, &am) {
				t.Fatalf("wrong dimension not rejected with ArchMismatchError: %v", err)
			} else if am.GotParams != n || am.WantParams != n+1 {
				t.Fatalf("counts not carried: %+v", am)
			}
		})
	}
}
