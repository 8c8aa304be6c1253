// Command haccs-bench regenerates the HACCS paper's tables and figures
// (see DESIGN.md for the experiment index). Each experiment prints the
// same rows/series the paper plots; absolute times are virtual seconds
// from the simulator, so shapes and ratios — not raw numbers — are the
// reproduction target.
//
// Examples:
//
//	haccs-bench -experiment fig5a
//	haccs-bench -experiment all -scale full -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"haccs/internal/core"
	"haccs/internal/experiments"
	"haccs/internal/telemetry"
)

// experimentFunc runs one experiment and returns its printed report.
type experimentFunc func(scale experiments.Scale, seed uint64) string

var registry = map[string]experimentFunc{
	"fig1": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig1(s, seed).String()
	},
	"fig5a": func(s experiments.Scale, seed uint64) string {
		r := experiments.RunFig5("cifar", s, seed)
		return r.String() + r.Curves(6)
	},
	"fig5b": func(s experiments.Scale, seed uint64) string {
		r := experiments.RunFig5("femnist", s, seed)
		return r.String() + r.Curves(6)
	},
	"fig6": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig6(s, seed).String()
	},
	"fig7": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig7(s, seed).String()
	},
	"fig8a": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig8a(s, seed).String()
	},
	"fig8b": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig8b(s, seed).String()
	},
	"fig9": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig9(s, seed).String()
	},
	"fig10": func(s experiments.Scale, seed uint64) string {
		return experiments.RunFig10(s, seed).String()
	},
	"table3": func(s experiments.Scale, seed uint64) string {
		// Table III and Fig. 11 come from the same instrumented runs,
		// one per summary kind.
		return experiments.RunBias(core.PY, s, seed).String() +
			experiments.RunBias(core.PXY, s, seed).String()
	},
	"ablation-clustering": func(s experiments.Scale, seed uint64) string {
		return experiments.RunClusteringAblation(s, 0.1, seed).String()
	},
	"ablation-latency": func(s experiments.Scale, seed uint64) string {
		return experiments.RunLatencyAblation(20000, seed).String()
	},
	"ablation-summary-size": func(s experiments.Scale, seed uint64) string {
		return experiments.RunSummarySizeAblation(s, seed).String()
	},
	"ablation-gradient": func(s experiments.Scale, seed uint64) string {
		return experiments.RunGradientAblation(s, seed).String()
	},
	"ablation-distance": func(s experiments.Scale, seed uint64) string {
		return experiments.RunDistanceAblation(s, seed).String()
	},
	"async-comparison": func(s experiments.Scale, seed uint64) string {
		return experiments.RunAsyncComparison(s, seed).String()
	},
}

// aliases map paper artifact names onto shared runs.
var aliases = map[string]string{
	"table1": "fig1",   // Table I is the Fig. 1 partition
	"fig11":  "table3", // Fig. 11 is produced by the Table III runs
	"table2": "ablation-latency",
}

func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id ("+strings.Join(names(), ", ")+", all) or alias (table1, table2, fig11)")
		scaleFlag  = flag.String("scale", "quick", "quick (minutes) or full (paper-scale client counts; much slower)")
		seed       = flag.Uint64("seed", 1, "root random seed")

		jsonlPath   = flag.String("telemetry-jsonl", "", "stream the round traces of every instrumented run as JSONL to this path")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/trace on this address while experiments run")
	)
	flag.Parse()

	scale, ok := experiments.ParseScale(*scaleFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "haccs-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	// Observability is opt-in: the runners consult the experiments
	// package's process-wide hook, so one flag instruments every engine
	// and HACCS scheduler the suite constructs.
	if *jsonlPath != "" || *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		var sinks []telemetry.Tracer
		if *jsonlPath != "" {
			jsonl, err := telemetry.NewJSONLFile(*jsonlPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() {
				if err := jsonl.Close(); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
			sinks = append(sinks, jsonl)
		}
		var ring *telemetry.RingSink
		if *metricsAddr != "" {
			ring = telemetry.NewRingSink(4096)
			sinks = append(sinks, ring)
			srv, err := telemetry.Serve(*metricsAddr, reg, ring)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Printf("telemetry: serving /metrics and /debug/trace on http://%s\n", srv.Addr())
		}
		experiments.EnableTelemetry(reg, telemetry.Combine(sinks...))
	}

	run := func(name string) {
		fn := registry[name]
		start := time.Now()
		out := fn(scale, *seed)
		fmt.Print(out)
		fmt.Printf("(%s completed in %s wall time at %s scale)\n\n", name, time.Since(start).Round(time.Millisecond), scale)
	}

	name := *experiment
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	switch {
	case name == "all":
		for _, n := range names() {
			run(n)
		}
	case registry[name] != nil:
		run(name)
	default:
		fmt.Fprintf(os.Stderr, "haccs-bench: unknown experiment %q (have: %s)\n", *experiment, strings.Join(names(), ", "))
		os.Exit(2)
	}
}
