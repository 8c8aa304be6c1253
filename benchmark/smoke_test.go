package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at smoke size through both
// passes. Every correctness check runs exactly as at full size (only
// sim_tta's accuracy target is waived: a few rounds cannot learn), and
// every contract metric must come out.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name + "/end_to_end"
			if trace {
				name = wl.name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := run(options{workload: wl.name, seed: 1, seconds: defaultSeconds, trace: trace, short: true, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.checks {
					if !c.ok {
						t.Errorf("check %s failed: %s", c.name, c.detail)
					}
				}
				if !res.correct || res.attempted == 0 || res.failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.metrics) != len(want) {
					t.Errorf("%d metrics reported, contract has %d", len(res.metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.name, v, ok)
					}
					if !trace && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v)
					}
				}
				if trace {
					info, err := os.Stat(filepath.Join(out, "trace_"+wl.name+".jsonl"))
					if err != nil || info.Size() == 0 {
						t.Errorf("span file missing or empty: %v", err)
					}
				}
				left, _ := filepath.Glob(filepath.Join(out, "ckpt-*"))
				if len(left) != 0 {
					t.Errorf("checkpoint scratch left behind: %v", left)
				}
			})
		}
	}
}

// TestSameSeedSameOutputs is the in-process half of -selfcheck: two
// runs of one seed share every exact output, and another seed does not.
func TestSameSeedSameOutputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var outs [3]exactOutputs
			for i, seed := range []uint64{1, 1, 2} {
				res, err := run(options{workload: wl.name, seed: seed, seconds: defaultSeconds, short: true, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = res.out
			}
			if outs[0] != outs[1] {
				t.Errorf("seed 1 twice: %+v vs %+v", outs[0], outs[1])
			}
			if outs[0].selectFNV == outs[2].selectFNV {
				t.Errorf("seeds 1 and 2 drew the same selection stream %x", outs[0].selectFNV)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark driver reads, in step with the tables this package reports
// from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default window %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, spec.Workloads[i], wl.name, wl.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, d.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
