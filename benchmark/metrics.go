package main

// metricDef is one reported metric. The two tables below are the
// benchmark's contract; BENCHMARK.json repeats them and a test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_p95", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"virtual_time_s", "s", "lower", 0.10},
}

// perLayer are the traced pass's metrics of single layers. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"tensor.gemm_ms", "ms", "lower", 0},
	{"nn.forward_ms", "ms", "lower", 0},
	{"nn.train_step_ms", "ms", "lower", 0},
	{"fl.local_train_ms", "ms", "lower", 0},
	{"fl.local_train_share", "frac", "higher", 0},
	{"fl.evaluate_ms", "ms", "lower", 0},
	{"fl.rounds_to_target", "count", "lower", 0},
	{"dataset.build_s", "s", "lower", 0},
	{"core.summaries_ms", "ms", "lower", 0},
	{"core.init_cluster_ms", "ms", "lower", 0},
	{"core.select_ms", "ms", "lower", 0},
	{"core.update_ms", "ms", "lower", 0},
	{"core.update_summaries_ms", "ms", "lower", 0},
	{"core.recluster_ms", "ms", "lower", 0},
	{"core.reclusters", "count", "lower", 0},
	{"core.reps", "count", "lower", 0},
	{"rounds.select_ms", "ms", "lower", 0},
	{"rounds.dispatch_ms", "ms", "lower", 0},
	{"rounds.collect_ms", "ms", "lower", 0},
	{"rounds.aggregate_ms", "ms", "lower", 0},
	{"rounds.update_ms", "ms", "lower", 0},
	{"rounds.driver_self_ms", "ms", "lower", 0},
	{"rounds.fedavg_ms", "ms", "lower", 0},
	{"rounds.staleness_mean", "count", "lower", 0},
	{"rounds.updates_stale", "count", "lower", 0},
	{"flnet.train_rtt_ms", "ms", "lower", 0},
	{"flnet.bytes_per_round", "B", "lower", 0},
	{"flnet.frames_per_round", "count", "lower", 0},
	{"flnet.accept_ms", "ms", "lower", 0},
	{"shard.accept_ms", "ms", "lower", 0},
	{"shard.round_ms", "ms", "lower", 0},
	{"shard.root_merge_ms", "ms", "lower", 0},
	{"checkpoint.capture_encode_ms", "ms", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"runtime.alloc_kb_per_round", "KB", "lower", 0},
	{"runtime.allocs_per_round", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"machine.ref_ms_floor", "ms", "lower", 0},
	{"machine.ref_ms_p95", "ms", "lower", 0},
}

// layerMetrics holds the traced pass's values by name.
type layerMetrics map[string]float64

// setupTimes collects the timings of public calls made during set-up,
// one sample per set-up repetition; the reported value is the median.
type setupTimes map[string][]float64

func (s setupTimes) add(name string, seconds float64) { s[name] = append(s[name], seconds) }
