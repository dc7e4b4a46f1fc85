package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, each from its own user-facing path; README.md
// maps each to what it means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"admit_ratio", "ratio", "higher", 0.1},
}

// perLayer are the per-module metrics of the traced run. A metric of a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	// core: the scheduler, timed through a wrapper around sched.Scheduler
	// (sim) or read from ef_sched_* counters (front door, efserver).
	{"core.admit_calls", "count", "lower", 0},
	{"core.admit_ms", "ms", "lower", 0},
	{"core.admit_p99_us", "us", "lower", 0},
	{"core.admit_accept_ratio", "ratio", "higher", 0},
	{"core.schedule_calls", "count", "lower", 0},
	{"core.schedule_ms", "ms", "lower", 0},
	{"core.schedule_p99_us", "us", "lower", 0},
	{"core.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"core.decision_admit_ms", "ms", "lower", 0},
	{"core.decision_allocate_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	// sim: the event loop around the scheduler, and its exact outcomes.
	{"sim.self_ms", "ms", "lower", 0},
	{"sim.rescales", "count", "lower", 0},
	{"sim.migrations", "count", "lower", 0},
	{"sim.dsr", "ratio", "higher", 0},
	{"sim.admitted_missed", "count", "lower", 0},
	// frontdoor: the admission tier in front of the shard platforms. The
	// latency is what a user waits: due time → verdict.
	{"frontdoor.latency_p50_ms", "ms", "lower", 0},
	{"frontdoor.latency_p99_ms", "ms", "lower", 0},
	{"frontdoor.max_rate_per_s", "1/s", "higher", 0},
	{"frontdoor.enqueue_p99_us", "us", "lower", 0},
	{"frontdoor.wait_p50_ms", "ms", "lower", 0},
	{"frontdoor.wait_p99_ms", "ms", "lower", 0},
	{"frontdoor.batches", "count", "lower", 0},
	{"frontdoor.mean_batch", "count", "higher", 0},
	{"frontdoor.max_batch", "count", "higher", 0},
	{"frontdoor.rebalanced_ratio", "ratio", "lower", 0},
	{"frontdoor.door_rejected_ratio", "ratio", "lower", 0},
	{"frontdoor.tick_ms", "ms", "lower", 0},
	{"frontdoor.tick_p99_ms", "ms", "lower", 0},
	{"frontdoor.sweep_share", "ratio", "higher", 0},
	{"frontdoor.self_ms", "ms", "lower", 0},
	{"verdict.admitted_p99_ms", "ms", "lower", 0},
	{"verdict.dropped_p99_ms", "ms", "lower", 0},
	{"verdict.rejected_p99_ms", "ms", "lower", 0},
	// store: the write-ahead journal under the platforms.
	{"store.fsyncs_per_mutation", "count", "lower", 0},
	{"store.records_per_mutation", "count", "lower", 0},
	{"store.record_bytes", "B", "lower", 0},
	{"store.wal_bytes_per_mutation", "B", "lower", 0},
	{"store.snapshots", "count", "lower", 0},
	{"store.append_durable_p50_us", "us", "lower", 0},
	{"store.append_durable_p99_us", "us", "lower", 0},
	{"store.self_ms", "ms", "lower", 0},
	// serverless: the platform's HTTP API as efserver serves it.
	{"serverless.submit_p50_ms", "ms", "lower", 0},
	{"serverless.submit_p99_ms", "ms", "lower", 0},
	{"serverless.read_p50_ms", "ms", "lower", 0},
	{"serverless.read_p99_ms", "ms", "lower", 0},
	{"serverless.read_tail_ratio", "ratio", "lower", 0},
	{"serverless.cancel_p50_ms", "ms", "lower", 0},
	{"serverless.cancel_p99_ms", "ms", "lower", 0},
	{"serverless.self_ms", "ms", "lower", 0},
	// go: the runtime of the process under test; allocation and collection
	// per 1000 operations.
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"go.alloc_mb", "MB/kop", "lower", 0},
	{"go.gc_cycles", "1/kop", "lower", 0},
	{"go.gc_pause_ms", "ms/kop", "lower", 0},
	// trace: building the workload's jobs from the trace generator.
	{"trace.materialize_ms", "ms", "lower", 0},
	// bench: the generator itself, and the validity of the run.
	{"bench.gen_lag_p99_ms", "ms", "lower", 0},
	{"bench.offered_per_s", "1/s", "higher", 0},
	{"bench.achieved_per_s", "1/s", "higher", 0},
	{"bench.throughput_per_s", "1/s", "higher", 0},
	{"bench.self_ms", "ms", "lower", 0},
	{"bench.traced_ms", "ms", "lower", 0},
	{"bench.spans", "count", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}
