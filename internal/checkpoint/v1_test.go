package checkpoint_test

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"haccs/internal/checkpoint"
	"haccs/internal/nn"
	"haccs/internal/rounds"
	"haccs/internal/selection"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// testdata/v1 is a store a FormatVersion 1 build (commit b3d5ed2) wrote:
// fixtureRun(fixtureParams(), store) after rounds 0–2, saved at round 3
// with components model, driver and strategy. It pins that this build
// resumes a run the previous format saved, bit for bit.

// fixtureArch is the fixture's model: 23 parameters.
var fixtureArch = nn.Arch{Kind: "mlp", In: 4, Hidden: []int{3}, Classes: 2}

// fixtureParams fills every mantissa bit; an echo round whose two
// reporters weigh 1/2 each leaves them unchanged bit for bit.
func fixtureParams() []float64 {
	p := make([]float64, 23)
	for i := range p {
		p[i] = (float64(i) - 11) / 7
	}
	return p
}

// echoProxy returns the global it was sent, as ten samples.
type echoProxy float64

func (e echoProxy) Train(_, _, _ int, params []float64, _ telemetry.SpanContext) (rounds.Result, error) {
	return rounds.Result{Params: slices.Clone(params), NumSamples: 10}, nil
}

func (e echoProxy) Latency() float64 { return float64(e) }

type echoTransport []rounds.Proxy

func (t echoTransport) Proxies() []rounds.Proxy { return t }
func (t echoTransport) Parallelism() int        { return 1 }

// fixtureRun is the fixture's run: four echo clients, two a round picked
// by a seeded uniform strategy, a snapshot every third round.
func fixtureRun(initial []float64, store *checkpoint.Store) *rounds.Run {
	strat := selection.NewRandom()
	strat.Init(nil, stats.NewRNG(7))
	cfg := rounds.Config{ClientsPerRound: 2}
	tr := echoTransport{echoProxy(1), echoProxy(2), echoProxy(3), echoProxy(4)}
	return rounds.NewRun(rounds.NewDriver(cfg, tr, strat, initial), cfg, strat, fixtureArch, store, 3)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestV1StoreResumesBitExact: NewStore opens the version 1 directory,
// LoadLatest upgrades its snapshot, and the restored run holds the saved
// parameters bit for bit, then continues exactly like a run that was
// never interrupted.
func TestV1StoreResumesBitExact(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST.json", "snap-00000003.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 3 || snap.Version != checkpoint.FormatVersion {
		t.Fatalf("loaded round %d, version %d; want 3, %d", snap.Round, snap.Version, checkpoint.FormatVersion)
	}
	resumed := fixtureRun(make([]float64, 23), nil)
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !sameBits(resumed.Global(), fixtureParams()) {
		t.Fatalf("restored parameters %v, want %v", resumed.Global(), fixtureParams())
	}

	ref := fixtureRun(fixtureParams(), nil)
	for r := 0; r < 3; r++ {
		ref.RunRound(r)
	}
	if resumed.NextRound() != 3 || resumed.Clock() != ref.Clock() {
		t.Fatalf("resumed at round %d, clock %v; uninterrupted: round 3, clock %v", resumed.NextRound(), resumed.Clock(), ref.Clock())
	}
	for r := 3; r < 6; r++ {
		want, got := ref.RunRound(r).Selected, resumed.RunRound(r).Selected
		if !slices.Equal(got, want) {
			t.Fatalf("round %d selected %v, uninterrupted run %v", r, got, want)
		}
	}
	if resumed.Clock() != ref.Clock() || !sameBits(resumed.Global(), ref.Global()) {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
}
