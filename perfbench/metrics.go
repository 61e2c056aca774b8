package main

// metricDef declares one reported metric. The lists below are the single
// source of the names and units BENCHMARK.json declares; a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the repository sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"dase_err_pct", "%", "lower"},
	{"fair_unfairness", "ratio", "lower"},
	{"fleet_jain", "index", "higher"},
}

// perLayer are the single-layer metrics of a traced run. Names are prefixed
// by the repository module they measure.
var perLayer = []metricDef{
	// Engine host time.
	{"sim.alone_ns_per_cycle", "ns", "lower"},
	{"sim.interval_ns_per_cycle", "ns", "lower"},
	{"sim.shared_cpu_s", "s", "lower"},
	{"dram.replay_ns_per_cycle", "ns", "lower"},
	{"smcore.replay_ns_per_cycle", "ns", "lower"},
	{"cache.replay_ns_per_access", "ns", "lower"},
	{"icnt.replay_ns_per_req", "ns", "lower"},
	// Engine model counts: identical under any speed-only change.
	{"sim.cycles", "count", "higher"},
	{"sim.insts", "count", "higher"},
	{"sim.load_latency_mean_cycles", "cycles", "lower"},
	{"smcore.ipc", "ratio", "higher"},
	{"smcore.alpha", "ratio", "lower"},
	{"smcore.occupancy", "ratio", "higher"},
	{"cache.l1_hit_rate", "ratio", "higher"},
	{"cache.l2_extra_misses", "count", "lower"},
	{"dram.served", "count", "higher"},
	{"dram.row_hit_rate", "ratio", "higher"},
	{"dram.bus_util", "ratio", "higher"},
	{"dram.bus_wasted_frac", "ratio", "lower"},
	{"dram.bus_idle_frac", "ratio", "lower"},
	// Estimators.
	{"core.dase_us_per_interval", "us", "lower"},
	{"baseline.mise_us_per_interval", "us", "lower"},
	{"baseline.asm_us_per_interval", "us", "lower"},
	// Policy.
	{"sched.policy_us_per_interval", "us", "lower"},
	{"sched.repartitions", "count", "lower"},
	// Batch (alone-run cache).
	{"workload.alone_calls", "count", "lower"},
	{"workload.alone_misses", "count", "lower"},
	{"workload.alone_busy_s", "s", "lower"},
	// Fleet.
	{"fleet.ticks", "count", "higher"},
	{"fleet.tick_ms_p50", "ms", "lower"},
	{"fleet.engine_calls", "count", "lower"},
	{"fleet.engine_busy_s", "s", "lower"},
	{"fleet.self_s", "s", "lower"},
	{"fleet.jobs_done", "count", "higher"},
	// Service: the serve path's own end-to-end figures, then its layers.
	{"load.estimate_qps", "1/s", "higher"},
	{"load.open_p50_us", "us", "lower"},
	{"load.open_p99_us", "us", "lower"},
	{"load.job_p50_ms", "ms", "lower"},
	{"load.job_p90_ms", "ms", "lower"},
	{"estimate.process_us_p50", "us", "lower"},
	{"server.handler_us_p50", "us", "lower"},
	{"server.handler_us_p99", "us", "lower"},
	{"server.client_gap_us_p50", "us", "lower"},
	{"load.late_p50_us", "us", "lower"},
	{"load.late_p99_us", "us", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.job_run_ms_p50", "ms", "lower"},
	{"simcache.hit_ratio", "ratio", "higher"},
	{"journal.records", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"load.closed_sent", "count", "higher"},
	{"load.closed_failed", "count", "lower"},
	{"load.open_sent", "count", "higher"},
	{"load.open_failed", "count", "lower"},
	{"load.jobs_sent", "count", "higher"},
	{"load.jobs_failed", "count", "lower"},
	// Runtime and harness.
	{"load.wall_s", "s", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
