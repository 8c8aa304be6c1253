package loadgen

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// RunMeta stamps a scale report with enough provenance to compare runs
// across revisions.
type RunMeta struct {
	// Rev is the git revision the run measured (the file is named
	// after it).
	Rev string
	// Date is the run date (YYYY-MM-DD).
	Date string
	// GoVersion and Host describe the environment.
	GoVersion string
	Host      string
	// Clients is the fleet size shared by every leg.
	Clients int
	// Seed is the run's root RNG seed.
	Seed uint64
}

// ReportPath is the canonical location of a revision's scale results.
func ReportPath(dir, rev string) string {
	return filepath.Join(dir, rev+".md")
}

// WriteReport renders the versioned scale-results markdown: run
// provenance, one summary table across legs, and a detail section per
// leg. The schema is documented in DESIGN.md §14; keep them in sync.
func WriteReport(w io.Writer, meta RunMeta, legs []LegResult) error {
	bw := &errWriter{w: w}
	bw.printf("# Scale results @ %s\n\n", meta.Rev)
	bw.printf("- date: %s\n- go: %s\n- host: %s\n- clients: %d\n- seed: %d\n\n",
		meta.Date, meta.GoVersion, meta.Host, meta.Clients, meta.Seed)

	bw.printf("## Summary\n\n")
	bw.printf("| leg | rounds | wall s | p50 s | p99 s | rounds/s | buffered/s | cuts | failed | reconnects | pass |\n")
	bw.printf("|-----|-------:|-------:|------:|------:|---------:|-----------:|-----:|-------:|-----------:|------|\n")
	for _, l := range legs {
		bw.printf("| %s | %d | %.1f | %.4f | %.4f | %.2f | %.2f | %.0f | %.0f | %.0f | %s |\n",
			l.Name, l.Rounds, l.WallSec, l.P50, l.P99, l.RoundsPerSec, l.BufferedPerSec,
			l.StragglerCuts, l.Failed, l.Reconnects, passMark(l.Pass))
	}
	bw.printf("\n")

	for _, l := range legs {
		bw.printf("## Leg: %s\n\n", l.Name)
		bw.printf("- round latency: p50 %.4fs, p99 %.4fs; %.2f rounds/s over %.1fs wall\n",
			l.P50, l.P99, l.RoundsPerSec, l.WallSec)
		if l.BufferedPerSec > 0 {
			bw.printf("- async: %.2f buffered updates/s\n", l.BufferedPerSec)
		}
		bw.printf("- churn: %.0f straggler cuts, %.0f failed clients, %.0f reconnects; sessions min %.0f / final %.0f of %d\n",
			l.StragglerCuts, l.Failed, l.Reconnects, l.SessionsMin, l.SessionsFinal, l.Clients)
		bw.printf("- runtime envelope: heap max %.1f MiB, goroutines max %.0f, GC pause p99 %.2gs, sched latency p99 %.2gs\n",
			l.HeapMaxBytes/(1<<20), l.GoroutinesMax, l.GCPauseP99, l.SchedP99)
		bw.printf("- fleet: %d observed rounds, Jain fairness %.3f\n", l.FleetRounds, l.Fairness)
		if l.StormKilled > 0 {
			if l.StormRecoverySec >= 0 {
				bw.printf("- storm: %d connections killed, all re-admitted in %.2fs\n", l.StormKilled, l.StormRecoverySec)
			} else {
				bw.printf("- storm: %d connections killed, NOT fully re-admitted\n", l.StormKilled)
			}
		}
		if l.CrashResumedFrom >= 0 {
			if l.Shards > 0 {
				bw.printf("- crash: root aggregator aborted mid-run, resumed from checkpoint at round %d with shards re-registering under load\n", l.CrashResumedFrom)
			} else {
				bw.printf("- crash: coordinator aborted mid-run, resumed from checkpoint at round %d under load\n", l.CrashResumedFrom)
			}
		}
		if l.Shards > 0 {
			bw.printf("- hierarchy: %d shard coordinators under one root; %.0f shard re-registrations; root aggregation p99 %.2gs\n",
				l.Shards, l.ShardReconnects, l.RootAggP99)
		}
		for _, n := range l.Notes {
			bw.printf("- note: %s\n", n)
		}
		for _, e := range l.ScrapeErrors {
			bw.printf("- scrape error: %s\n", e)
		}
		bw.printf("- result: %s\n\n", passMark(l.Pass))
	}

	bw.printf("All numbers above come from the coordinator's own `/metrics` and `/debug/fleet`\nendpoints, scraped over HTTP during the run (see `internal/loadgen`).\n")
	return bw.err
}

func passMark(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// AllPass reports whether every leg passed (the harness's exit
// criterion).
func AllPass(legs []LegResult) bool {
	for _, l := range legs {
		if !l.Pass {
			return false
		}
	}
	return len(legs) > 0
}

// FailureSummary lists the failing legs and why, one line each.
func FailureSummary(legs []LegResult) string {
	var lines []string
	for _, l := range legs {
		if l.Pass {
			continue
		}
		why := "did not meet leg criteria"
		if len(l.ScrapeErrors) > 0 {
			why = l.ScrapeErrors[0]
		} else if l.StormKilled > 0 && l.StormRecoverySec < 0 {
			why = "reconnect storm never fully recovered"
		} else if l.CrashResumedFrom < 0 && l.Name == "crash" {
			why = "crash leg did not resume from checkpoint"
		}
		lines = append(lines, fmt.Sprintf("leg %s: %s", l.Name, why))
	}
	return strings.Join(lines, "\n")
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
