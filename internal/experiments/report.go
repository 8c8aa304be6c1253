package experiments

import (
	"fmt"
	"math"
	"strings"

	"haccs/internal/fl"
	"haccs/internal/metrics"
)

// StrategyRun is one strategy's outcome within a comparison. When the
// comparison runs multiple seeds, TTA is the mean over seeds that
// reached the target, Result holds the first seed's run (for curves),
// and ReachedCount/Repeats record how often the target was met.
type StrategyRun struct {
	Name         string
	Result       *fl.Result
	TTA          float64
	TTAReached   bool
	ReachedCount int
	Repeats      int
}

// CompareReport is the outcome of running several strategies on the same
// workload — the shape of Figs. 5, 6, 8b, 9 and 10.
type CompareReport struct {
	Title  string
	Target float64
	Runs   []StrategyRun
}

// runComparisonSeeds executes every strategy on an identically rebuilt
// workload and engine configuration, averaged over several seeds
// (baseSeed, baseSeed+101, baseSeed+202, ...): single-seed quick-scale
// TTA comparisons are noisy, and the paper's curves come from far larger
// runs, so headline comparisons average a few seeds. build must return a
// fresh workload per call (given a seed) so no strategy observes
// another's state; the strategy for index i is produced by strat.
func runComparisonSeeds(title string, n int, target float64, repeats int, baseSeed uint64,
	build func(seed uint64) (*Workload, EngineConfig),
	strat func(w *Workload, i int, seed uint64) fl.Strategy) *CompareReport {

	if repeats < 1 {
		repeats = 1
	}
	report := &CompareReport{Title: title, Target: target}
	for i := 0; i < n; i++ {
		var run StrategyRun
		run.Repeats = repeats
		sumTTA := 0.0
		for rep := 0; rep < repeats; rep++ {
			seed := baseSeed + uint64(rep)*101
			w, ec := build(seed)
			s := strat(w, i, seed)
			res := fl.NewEngine(ec.ToFL(w, seed), w.Clients, s).Run()
			if rep == 0 {
				run.Name = s.Name()
				run.Result = res
			}
			if tta, ok := metrics.TTA(res.History, target); ok {
				sumTTA += tta
				run.ReachedCount++
			}
		}
		// The target must be met in a majority of seeds to count.
		if run.ReachedCount*2 > repeats {
			run.TTA = sumTTA / float64(run.ReachedCount)
			run.TTAReached = true
		}
		report.Runs = append(report.Runs, run)
	}
	return report
}

// Best returns the run with the lowest reached TTA (falling back to the
// highest final accuracy when nobody reached the target).
func (r *CompareReport) Best() StrategyRun {
	best := -1
	for i, run := range r.Runs {
		if !run.TTAReached {
			continue
		}
		if best == -1 || run.TTA < r.Runs[best].TTA {
			best = i
		}
	}
	if best >= 0 {
		return r.Runs[best]
	}
	for i, run := range r.Runs {
		if best == -1 || run.Result.FinalAccuracy() > r.Runs[best].Result.FinalAccuracy() {
			best = i
		}
	}
	return r.Runs[best]
}

// Get returns the named run, or false.
func (r *CompareReport) Get(name string) (StrategyRun, bool) {
	for _, run := range r.Runs {
		if run.Name == name {
			return run, true
		}
	}
	return StrategyRun{}, false
}

// Table renders the comparison summary: final accuracy, TTA at target
// and the reduction relative to the random baseline.
func (r *CompareReport) Table() *metrics.Table {
	t := metrics.NewTable("strategy", "final-acc", fmt.Sprintf("tta@%.0f%%", r.Target*100), "vs-random")
	baseline := math.NaN()
	if run, ok := r.Get("random"); ok && run.TTAReached {
		baseline = run.TTA
	}
	for _, run := range r.Runs {
		tta := "not reached"
		vs := "-"
		if run.TTAReached {
			tta = fmt.Sprintf("%.1fs", run.TTA)
			if !math.IsNaN(baseline) {
				vs = fmt.Sprintf("%+.0f%%", -100*metrics.Reduction(baseline, run.TTA))
			}
		}
		t.AddRow(run.Name, run.Result.FinalAccuracy(), tta, vs)
	}
	return t
}

// Curves renders each strategy's accuracy-over-virtual-time series (the
// figure's plotted lines) at a modest number of sample points.
func (r *CompareReport) Curves(points int) string {
	var b strings.Builder
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s:\n", run.Name)
		h := run.Result.History
		step := len(h)/points + 1
		for i := 0; i < len(h); i += step {
			fmt.Fprintf(&b, "  t=%8.1fs  acc=%.3f\n", h[i].Time, h[i].Acc)
		}
		if len(h) > 0 {
			last := h[len(h)-1]
			fmt.Fprintf(&b, "  t=%8.1fs  acc=%.3f (final)\n", last.Time, last.Acc)
		}
	}
	return b.String()
}

// String renders the full report.
func (r *CompareReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	b.WriteString(r.Table().String())
	return b.String()
}
