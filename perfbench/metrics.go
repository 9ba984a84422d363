package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, in print order.
// failed_pct is printed beside them but not reported in the result line:
// it reads 0 on a healthy run, and the result's "failed" count carries it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, in print order. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"faultsim.golden_build_ms", "ms"},
	{"snn.run_trace_ms", "ms"},
	{"faultsim.golden_replay_ms", "ms"},
	{"tester.coverage_ms", "ms"},
	{"tester.coverage_neuron_ms", "ms"},
	{"tester.coverage_synapse_ms", "ms"},
	{"faultsim.packed_groups", "count"},
	{"faultsim.lane_fill_pct", "%"},
	{"faultsim.memo_hit_ratio", "ratio"},
	{"core.generate_ms", "ms"},
	{"diagnose.build_ms", "ms"},
	{"compact.compact_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.sessions_run_ms", "ms"},
	{"service.coverage_run_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.golden_builds", "count"},
	{"tester.session_ms", "ms"},
	{"tester.sample_faults_ms", "ms"},
	{"variation.sample_ms", "ms"},
	{"variation.apply_ms", "ms"},
	{"snn.forward_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// layers are the program's modules a traced op's self time is split over,
// plus "bench" for the benchmark's own glue between calls.
var layers = []string{"core", "snn", "faultsim", "tester", "variation", "diagnose", "compact", "service", "bench"}
