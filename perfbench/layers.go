package main

// layerMetric is one per-layer metric of the traced run. A metric with
// a span takes that span's self time (seconds); the others come from
// the pass's own measurements. Layers a workload does not exercise
// report 0.
type layerMetric struct {
	name, unit, better, span string
}

var layerMetrics = []layerMetric{
	// flow: front end, filter, cluster.
	{"verilog.parse_s", "s", "lower", "verilog.parse"},
	{"rtl.elaborate_s", "s", "lower", "rtl.elaborate"},
	{"core.filter_s", "s", "lower", "core.filter"},
	{"core.candidates", "count", "lower", ""},
	{"core.cluster_s", "s", "lower", "core.cluster"},
	{"core.clusters", "count", "lower", ""},
	// flow: characterization and its openfpga phases.
	{"core.characterize_s", "s", "lower", "core.characterize"},
	{"openfpga.synthesize_s", "s", "lower", "openfpga.synthesize"},
	{"openfpga.map_s", "s", "lower", "openfpga.map"},
	{"openfpga.fit_s", "s", "lower", "openfpga.fit"},
	{"techmap.luts", "count", "lower", ""},
	{"core.valid_efpgas", "count", "higher", ""},
	// flow: selection and implementation.
	{"core.select_s", "s", "lower", "core.select"},
	{"core.solutions", "count", "higher", ""},
	{"core.implement_s", "s", "lower", "core.implement"},
	{"place.cost", "count", "lower", ""},
	{"route.iterations", "count", "lower", ""},
	{"bitstream.config_bits", "count", "lower", ""},
	// flow: redaction and the output checks.
	{"core.redact_s", "s", "lower", "core.redact"},
	{"verify.redaction_s", "s", "lower", "verify.redaction"},
	{"verify.bitstream_s", "s", "lower", "verify.bitstream"},
	// attack and the SAT solver.
	{"attack.recover_s", "s", "lower", "attack.recover"},
	{"attack.verify_key_s", "s", "lower", "attack.verify_key"},
	{"attack.dips", "count", "lower", ""},
	{"attack.key_bits", "count", "higher", ""},
	{"attack.cracked_ratio", "ratio", "higher", ""},
	{"sat.conflicts", "count", "lower", ""},
	{"sat.decisions", "count", "lower", ""},
	{"sat.propagations", "count", "lower", ""},
	{"sat.reductions", "count", "lower", ""},
	{"sat.deleted_clauses", "count", "lower", ""},
	{"sat.props_per_s", "1/s", "higher", ""},
	// serve: job queue, store, memo and cache.
	{"jobq.wait_p50_ms", "ms", "lower", ""},
	{"jobq.wait_p90_ms", "ms", "lower", ""},
	{"jobq.retries", "count", "lower", ""},
	{"store.puts", "count", "lower", ""},
	{"store.log_bytes", "bytes", "lower", ""},
	{"store.rollbacks", "count", "lower", ""},
	{"serve.run_hit_ms", "ms", "lower", ""},
	{"serve.run_miss_ms", "ms", "lower", ""},
	{"serve.http_ms", "ms", "lower", ""},
	{"serve.memo_hit_ratio", "ratio", "higher", ""},
	{"serve.flow_runs", "count", "lower", ""},
	{"cache.mem_hits", "count", "higher", ""},
	{"cache.disk_hits", "count", "higher", ""},
	{"cache.hit_ratio", "ratio", "higher", ""},
	{"serve.rejected", "count", "lower", ""},
	// the trace itself.
	{"trace.wall_s", "s", "lower", ""},
	{"trace.untraced_wall_s", "s", "lower", ""},
	{"trace.overhead_s", "s", "lower", ""},
	{"trace.coverage", "ratio", "higher", ""},
}
