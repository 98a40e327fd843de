package main

// metricDef names one reported metric. Clock says what the value
// measures: "host" for time or memory of the machine running the
// benchmark; "sim" for an outcome of the simulation itself, which
// repeats exactly for a fixed seed and guards speed-only changes;
// "engine" for the flood engine's traversal-cache counters, which
// repeat exactly for a fixed seed and engine but may move with a
// change to the engine.
type metricDef struct {
	name     string
	unit     string
	better   string // "higher" or "lower"
	clock    string // "host", "sim" or "engine"
	endToEnd bool
}

func e2e(name, unit, better, clock string) metricDef {
	return metricDef{name, unit, better, clock, true}
}

func layer(name, unit, better, clock string) metricDef {
	return metricDef{name, unit, better, clock, false}
}

// metricDefs lists every metric in report order. BENCHMARK.json at the
// repository root declares the same names, units and directions.
var metricDefs = []metricDef{
	e2e("wall_s", "s", "lower", "host"),
	e2e("setup_s", "s", "lower", "host"),
	e2e("ns_per_peer_tick", "ns", "lower", "host"),
	e2e("allocs_per_tick", "allocs/tick", "lower", "host"),
	e2e("alloc_bytes_per_tick", "B/tick", "lower", "host"),
	e2e("state_heap_mb", "MB", "lower", "host"),
	e2e("success_rate", "frac", "higher", "sim"),
	e2e("response_p95_s", "s", "lower", "sim"),
	e2e("control_msgs", "msgs/run", "lower", "sim"),

	layer("topology.build_ms", "ms", "lower", "host"),
	layer("overlay.build_ms", "ms", "lower", "host"),
	layer("workload.build_ms", "ms", "lower", "host"),
	layer("attack.build_ms", "ms", "lower", "host"),
	layer("police.init_ms", "ms", "lower", "host"),
	layer("flood.build_ms", "ms", "lower", "host"),

	layer("overlay.churn_ns_per_tick", "ns/tick", "lower", "host"),
	layer("attack.ns_per_tick", "ns/tick", "lower", "host"),
	layer("workload.querygen_ns_per_tick", "ns/tick", "lower", "host"),
	layer("flood.query_ns_per_tick", "ns/tick", "lower", "host"),
	layer("police.ns_per_tick", "ns/tick", "lower", "host"),
	layer("metrics.ns_per_tick", "ns/tick", "lower", "host"),
	layer("sim.unattributed_ns_per_tick", "ns/tick", "lower", "host"),

	layer("flood.floods", "count/run", "lower", "sim"),
	layer("flood.edges_traversed", "count/run", "lower", "sim"),
	layer("flood.dup_suppressed", "count/run", "lower", "sim"),
	layer("flood.budget_drops", "count/run", "lower", "sim"),
	layer("flood.ns_per_edge", "ns", "lower", "host"),
	layer("flood.cache_hits", "count/run", "higher", "engine"),
	layer("flood.cache_builds", "count/run", "lower", "engine"),
	layer("flood.cache_fallbacks", "count/run", "lower", "engine"),
	layer("flood.cache_flushes", "count/run", "lower", "engine"),
	layer("flood.cache_useful_frac", "frac", "higher", "engine"),

	layer("attack.query_msgs", "msgs/run", "lower", "sim"),
	layer("workload.queries_issued", "count/run", "higher", "sim"),
	layer("police.list_msgs", "msgs/run", "lower", "sim"),
	layer("police.nt_msgs", "msgs/run", "lower", "sim"),
	layer("police.verify_msgs", "msgs/run", "lower", "sim"),
	layer("police.control_lost", "msgs/run", "lower", "sim"),
	layer("police.detections", "count/run", "higher", "sim"),
	layer("police.agents_missed", "count/run", "lower", "sim"),
	layer("police.good_peers_cut", "count/run", "lower", "sim"),
	layer("overlay.cut_edges", "count/run", "lower", "sim"),

	layer("telemetry.overhead_frac", "frac", "lower", "host"),
	layer("process.max_rss_mb", "MB", "lower", "host"),
}
