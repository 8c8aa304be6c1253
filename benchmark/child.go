package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Each workload runs in a process of its own, so peak RSS and garbage-
// collector state never leak from one workload into the next.

func childArgs(opt options, workload string, trace bool) []string {
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-trace", t, "-out", opt.outDir}
	if opt.short {
		args = append(args, "-short")
	}
	return args
}

// runChild re-executes this binary for one workload, copying its
// output through to w.
func runChild(opt options, workload string, trace bool, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, childArgs(opt, workload, trace)...)
	cmd.Stdout, cmd.Stderr = w, os.Stderr
	return cmd.Run()
}

// runAll runs every workload once (end-to-end pass, or traced pass
// with -trace 1) and returns the process exit code.
func runAll(opt options) int {
	code := 0
	for _, wl := range workloads {
		if err := runChild(opt, wl.name, opt.trace, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

// childReport is what selfcheck reads back from one child run.
type childReport struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	exact map[string]string // "exact <key> <value>" lines
}

func parseReport(out []byte) (*childReport, error) {
	rep := &childReport{exact: map[string]string{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 && f[0] == "exact" {
			rep.exact[f[1]] = f[2]
		}
	}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return rep, nil
}

// exactLayers are the per-layer counts that must repeat exactly.
var exactLayers = []string{"fl.rounds_to_target", "flnet.bytes_per_round", "flnet.frames_per_round", "core.reclusters", "core.reps"}

// runSelfcheck runs each workload twice back to back on one seed, in
// both passes, and fails unless the exact outputs match and every
// end-to-end timing agrees within its bound. It prints the spread
// table that backs the bounds.
func runSelfcheck(opt options) int {
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	code := 0
	fail := func(format string, a ...any) {
		fmt.Printf("selfcheck FAILED: "+format+"\n", a...)
		code = 1
	}
	for _, name := range names {
		var e2e, layer [2]*childReport
		for i := 0; i < 2; i++ {
			for _, trace := range []bool{false, true} {
				var buf bytes.Buffer
				err := runChild(opt, name, trace, &buf)
				rep, perr := parseReport(buf.Bytes())
				if err != nil || perr != nil || !rep.Correct {
					os.Stdout.Write(buf.Bytes())
					fail("%s run %d trace=%v: run error %v, parse error %v", name, i, trace, err, perr)
					return code
				}
				if trace {
					layer[i] = rep
				} else {
					e2e[i] = rep
				}
			}
		}
		fmt.Printf("== selfcheck %s, seed %d ==\n", name, opt.seed)
		for _, key := range []string{"virtual_time_s", "fnv_global", "fnv_selection"} {
			for _, pair := range [][2]*childReport{e2e, layer} {
				if pair[0].exact[key] != pair[1].exact[key] || pair[0].exact[key] == "" {
					fail("%s: %s differs between runs: %q vs %q", name, key, pair[0].exact[key], pair[1].exact[key])
				}
			}
			fmt.Printf("%-30s %s\n", key, e2e[0].exact[key])
		}
		for _, key := range exactLayers {
			a, b := layer[0].Metrics[key].Value, layer[1].Metrics[key].Value
			if a != b {
				fail("%s: %s differs between runs: %v vs %v", name, key, a, b)
			}
			fmt.Printf("%-30s %v\n", key, a)
		}
		fmt.Printf("%-30s %14s %14s %9s %7s\n", "metric", "run 1", "run 2", "spread", "bound")
		for _, d := range endToEnd {
			a, b := e2e[0].Metrics[d.name].Value, e2e[1].Metrics[d.name].Value
			spread := math.Abs(a-b) / math.Min(a, b)
			fmt.Printf("%-30s %14.6g %14.6g %8.2f%% %6.0f%%\n", d.name, a, b, spread*100, d.bound*100)
			if !(spread <= d.bound) {
				fail("%s: %s spread %.1f%% exceeds its bound %.0f%%", name, d.name, spread*100, d.bound*100)
			}
		}
	}
	if code == 0 {
		fmt.Println("selfcheck ok")
	}
	return code
}
