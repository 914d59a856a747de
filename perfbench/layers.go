package main

import "sort"

// perLayer lists the traced run's metrics with their units. Each
// workload measures the layers it exercises; a layer a workload never
// reaches reads 0 there (README.md names which workload measures
// which). Times are mean self-times per span unless the name says
// otherwise; the span counts behind them are printed as report lines.
var perLayer = []metricDef{
	// serve-mix: the serving layer.
	{"serve.root_self_p50_ms", "ms"},
	{"serve.root_self_p99_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.flight_p99_ms", "ms"},
	{"serve.rejected_429", "count"},
	{"serve.rejected_503", "count"},
	{"serve.rejected_504", "count"},
	{"serve.coalesced_ratio", "ratio"},
	{"cdg.cache_lookup_p50_us", "us"},
	{"cdg.cache_lookup_count", "count"},
	{"cdg.cache_hit_ratio", "ratio"},
	{"cdg.delta_ms", "ms"},
	{"cdg.patch_ms", "ms"},
	{"cdg.repeel_ms", "ms"},
	{"class.hot.p50_ms", "ms"},
	{"class.hot.p90_ms", "ms"},
	{"class.cold.p50_ms", "ms"},
	{"class.cold.p90_ms", "ms"},
	{"class.delta.p50_ms", "ms"},
	{"class.delta.p90_ms", "ms"},
	{"class.graph.p50_ms", "ms"},
	{"class.graph.p90_ms", "ms"},
	{"class.batch.p50_ms", "ms"},
	{"class.batch.p90_ms", "ms"},
	{"class.design.p50_ms", "ms"},
	{"class.design.p90_ms", "ms"},
	{"client.transport_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	// serve-mix and verify-cold: CDG construction and peel.
	{"cdg.edges_ms", "ms"},
	{"cdg.kahn_ms", "ms"},
	// verify-cold.
	{"cdg.kahn_rounds", "count"},
	{"cdg.verify_self_ms", "ms"},
	{"cdg.build_peel_ratio", "ratio"},
	{"cdg.pool_key_ms", "ms"},
	{"cdg.first_contact_ratio", "ratio"},
	{"topology.network_ms", "ms"},
	{"core.turnset_ms", "ms"},
	{"cdg.channels_per_verdict", "count"},
	{"cdg.edges_per_verdict", "count"},
	{"cdg.edges_per_s", "1/s"},
	// verify-cold and graph-modes.
	{"alloc_bytes_per_verdict", "B"},
	// graph-modes.
	{"graphio.parse_text_ms", "ms"},
	{"graphio.parse_json_ms", "ms"},
	{"graphio.parse_mb_per_s", "MB/s"},
	{"cdg.mode.loop_ms", "ms"},
	{"cdg.mode.liveness_ms", "ms"},
	{"cdg.mode.escape_ms", "ms"},
	{"cdg.mode.subrel_ms", "ms"},
	{"topology.dragonfly_gen_s", "s"},
	{"graphio.export_s", "s"},
	// sim-sweep.
	{"sim.new_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.cycles", "count"},
	{"sim.delivered_packets", "count"},
	{"sim.router_cycles_per_s", "1/s"},
	// Every workload: the verdict tail, measured with tracing on.
	{"verdict_p99_ms", "ms"},
	// Every workload: checks of the measurement itself.
	{"trace.overhead_frac", "ratio"},
	{"unattributed_frac", "ratio"},
	{"traced_verdicts", "count"},
}

// printFold adds one report line per span name: count, mean and total
// self-time, so every per-layer figure can be traced to its base.
func printFold(rep *report, f fold) {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := f[n]
		rep.linef("span %-20s count %7d  self mean %9.4f ms  self total %10.2f ms  dur mean %9.4f ms",
			n, len(a.self), a.self.mean(), a.self.sum(), a.dur.mean())
	}
}
