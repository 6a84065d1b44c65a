package main

import "encoding/json"

// The names in this file are the benchmark's contract: BENCHMARK.json is
// generated from them (-manifest) and a test keeps the two in step. Later
// issues refer to workloads and metrics by these names.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures: it replays rounds of the
// workload's request list until they have taken this long.
const runSeconds = 20

// endToEnd are the metrics a caller of the system sees; Bound is the share
// of the parent's median by which a later change may worsen the metric. The
// wall-clock and CPU-time bounds are as wide as the shared 2-core box makes
// them (README, "Spread"): runs minutes apart differ by up to a fifth. The
// two clocks the box does not disturb, virtual cost and allocations, are
// the tight gates.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"virtual_ms_per_read", "ms", "lower", 0.04},
	{"allocs_per_op", "count", "lower", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers, named <module>.<what>. They
// carry no bound: they explain an end-to-end change, they do not gate one.
var perLayer = []layerDef{
	{"vdisk.page_reads_per_read", "count", "lower"},
	{"vdisk.seq_read_frac", "ratio", "higher"},
	{"vdisk.seeks_per_read", "count", "lower"},
	{"vdisk.pages_per_seek", "pages", "lower"},
	{"vdisk.iowait_v_frac", "ratio", "lower"},
	{"vdisk.page_writes_per_commit", "count", "lower"},
	{"vdisk.readsync_ns", "ns", "lower"},

	{"buffer.read_per_fix", "ratio", "lower"},
	{"buffer.evictions_per_read", "count", "lower"},
	{"buffer.hash_lookups_per_read", "count", "lower"},
	{"buffer.withdrawn_frac", "ratio", "lower"},
	{"buffer.fix_hit_ns", "ns", "lower"},

	{"storage.decode_us_per_page", "us", "lower"},
	{"storage.step_ns_per_node", "ns", "lower"},
	{"storage.swizzles_per_read", "count", "lower"},
	{"storage.nodes_visited_per_result", "count", "lower"},
	{"storage.clusters_skipped_frac", "ratio", "higher"},
	{"storage.derived_hit_frac", "ratio", "higher"},
	{"storage.bytes_per_node", "bytes", "lower"},
	{"storage.border_frac", "ratio", "lower"},

	{"ordpath.compare_ns", "ns", "lower"},
	{"xpath.parse_us", "us", "lower"},

	{"plan.choose_us", "us", "lower"},
	{"plan.refresh_us_per_commit", "us", "lower"},
	{"plan.newchooser_ms", "ms", "lower"},
	{"plan.regret_frac", "ratio", "lower"},
	{"plan.qerror_p50", "ratio", "lower"},

	{"core.xschedule_ms_per_query", "ms", "lower"},
	{"core.xscan_ms_per_query", "ms", "lower"},
	{"core.simple_ms_per_query", "ms", "lower"},
	{"core.xjoin_ms_per_query", "ms", "lower"},
	{"core.nested_ms_per_query", "ms", "lower"},
	{"core.sort_ms_per_kresult", "ms", "lower"},
	{"core.tuples_moved_per_result", "count", "lower"},
	{"core.set_ops_per_result", "count", "lower"},
	{"core.spec_instances_per_query", "count", "lower"},
	{"core.fallback_events", "count", "lower"},

	{"engine.queue_ms_p50", "ms", "lower"},
	{"engine.exec_ms_p50", "ms", "lower"},
	{"engine.gang_size_mean", "count", "higher"},
	{"engine.batched_frac", "ratio", "higher"},
	{"engine.rejected_frac", "ratio", "lower"},
	{"engine.overhead_v_us_per_query", "us", "lower"},
	{"engine.costv_outlier_frac", "ratio", "lower"},
	{"engine.split_union_frac", "ratio", "lower"},

	{"txn.flushes_per_commit", "count", "lower"},
	{"txn.group_size_mean", "count", "higher"},
	{"txn.page_writes_per_commit", "count", "lower"},
	{"txn.commit_p90_ms", "ms", "lower"},
	{"txn.pinned_max", "count", "lower"},
	{"txn.free_pages_end", "pages", "lower"},
	{"txn.read_after_commit_ms_p50", "ms", "lower"},

	{"pathdb.submit_to_cursor_us", "us", "lower"},
	{"pathdb.drain_us_per_knode", "us", "lower"},
	{"pathdb.sort_barrier_ms_p50", "ms", "lower"},
	{"pathdb.read_p99_ms", "ms", "lower"},
	{"pathdb.alloc_kb_per_op", "kB", "lower"},

	{"shard.scatter_ms_p50", "ms", "lower"},
	{"shard.merge_us_per_knode", "us", "lower"},
	{"shard.count_cache_hit_frac", "ratio", "higher"},
	{"shard.slowest_shard_share", "ratio", "lower"},
	{"shard.page_skew", "ratio", "lower"},

	{"server.http_overhead_ms_p50", "ms", "lower"},
	{"server.ndjson_us_per_knode", "us", "lower"},
	{"server.bytes_per_node", "bytes", "lower"},
	{"server.shed_frac", "ratio", "lower"},
	{"server.inflight_max", "count", "lower"},

	{"setup.generate_s", "s", "lower"},
	{"setup.import_s", "s", "lower"},
	{"setup.engine_start_s", "s", "lower"},

	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.generator_idle_frac", "ratio", "lower"},
	{"bench.failed_frac", "ratio", "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// procs is the GOMAXPROCS the benchmark runs with: the closed-loop client,
// the engine's dispatcher and workers and, on served_sharded, the HTTP server
// share one core. The box has two cores of a shared host; with both in use
// every hand-over from one goroutine to the next wakes an idle core, and how
// long that takes is the host's business: the same binary and seed then
// differ by a fifth from one minute to the next. On one core a hand-over is
// a goroutine switch, and the other core is there for the host to take.
const procs = 1

// clients is the width of the closed loop: one caller that waits for each
// reply before it sends the next request.
const clients = 1

// engineParallel is EngineConfig.Parallel, the number of groups the engine
// splits a gang's shared plans into. It stays at the two the box has cores:
// it decides how the branches of a union are batched on flat_cold.
const engineParallel = 2
