package main

// metricDef declares one metric of the suite. BENCHMARK.json carries the
// same table (manifest_test.go holds the two together); README.md has
// the definitions in prose.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// endToEnd are the six metrics every workload emits from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, emitted by the traced run.
// The comment on each group names the end-to-end metric it should move.
var perLayer = []metricDef{
	// harness: move nothing; say whether the machine or the tracer moved.
	{name: "bench.calib_spread", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},

	// engine-144 spans and bare-world pair → op_p50_ms, allocs_per_op on
	// engine-144; flat on kernel-dense.
	{name: "ime.cell_ms", unit: "ms", better: "lower"},
	{name: "scalapack.cell_ms", unit: "ms", better: "lower"},
	{name: "monitor.overhead_ms", unit: "ms", better: "lower"},
	{name: "mpi.msgs_per_op", unit: "count", better: "lower"},
	{name: "mpi.bytes_per_op", unit: "bytes", better: "lower"},
	{name: "mpi.host_us_per_msg", unit: "us", better: "lower"},
	{name: "mpi.allocs_per_msg", unit: "count", better: "lower"},
	{name: "engine.sim_s_per_host_s", unit: "ratio", better: "higher"},

	// mpi micro-probes → op_p50_ms on engine-144; allreduce also
	// sparse-krylov.
	{name: "mpi.pingpong_us", unit: "us", better: "lower"},
	{name: "mpi.bcast_us", unit: "us", better: "lower"},
	{name: "mpi.barrier_us", unit: "us", better: "lower"},
	{name: "mpi.allreduce_us", unit: "us", better: "lower"},
	{name: "mpi.world_setup_us", unit: "us", better: "lower"},
	{name: "mpi.solve_r576_ms", unit: "ms", better: "lower"},
	{name: "mpi.allocs_r576", unit: "count", better: "lower"},

	// kernel probes and kernel-dense spans → op_p50_ms, ops_per_s on
	// kernel-dense; flat on engine-144.
	{name: "kernel.gemm_gflops", unit: "GF/s", better: "higher"},
	{name: "kernel.trailing_gflops", unit: "GF/s", better: "higher"},
	{name: "kernel.axpy_gbps", unit: "GB/s", better: "higher"},
	{name: "kernel.scalar_ratio", unit: "ratio", better: "higher"},
	{name: "ime.solve_ms", unit: "ms", better: "lower"},
	{name: "scalapack.solve_ms", unit: "ms", better: "lower"},
	{name: "ime.gflops", unit: "GF/s", better: "higher"},
	{name: "scalapack.gflops", unit: "GF/s", better: "higher"},

	// sparse probes and sparse-krylov spans → op_p50_ms, alloc_mb_per_op
	// on sparse-krylov.
	{name: "sparse.gen_ms", unit: "ms", better: "lower"},
	{name: "sparse.spmv_ms", unit: "ms", better: "lower"},
	{name: "sparse.spmv_gbps", unit: "GB/s", better: "higher"},
	{name: "sparse.iters_cg", unit: "count", better: "lower"},
	{name: "sparse.iters_bicgstab", unit: "count", better: "lower"},
	{name: "sparse.iter_ms", unit: "ms", better: "lower"},
	{name: "sparse.iter_over_spmv", unit: "ratio", better: "lower"},

	// model cells → op_p90_ms, ops_per_s on serve-mix and the cold share
	// of campaign-paper; surrogate.predict_ns → serve-mix op_p50_ms only.
	{name: "perfmodel.run_us", unit: "us", better: "lower"},
	{name: "sparse.model_us", unit: "us", better: "lower"},
	{name: "surrogate.predict_ns", unit: "ns", better: "lower"},
	{name: "core.recommend_us", unit: "us", better: "lower"},

	// serving stages → op_p50_ms (hit, surrogate, parse, tracing) and
	// op_p90_ms (exact, admission) on serve-mix; flat everywhere else.
	{name: "server.hit_us", unit: "us", better: "lower"},
	{name: "server.surrogate_us", unit: "us", better: "lower"},
	{name: "server.exact_us", unit: "us", better: "lower"},
	{name: "server.sparse_us", unit: "us", better: "lower"},
	{name: "server.parse_us", unit: "us", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.surrogate_ratio", unit: "ratio", better: "higher"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.tracing_cost_ratio", unit: "ratio", better: "lower"},
	{name: "server.http_rtt_us", unit: "us", better: "lower"},

	// store and campaign → op_p50_ms, allocs_per_op on campaign-paper.
	{name: "core.identity_us", unit: "us", better: "lower"},
	{name: "core.lookup_us", unit: "us", better: "lower"},
	{name: "store.append_us", unit: "us", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "campaign.cold_ms", unit: "ms", better: "lower"},
	{name: "campaign.reopen_ms", unit: "ms", better: "lower"},
	{name: "campaign.warm_ms", unit: "ms", better: "lower"},
	{name: "campaign.cold_cells_per_s", unit: "1/s", better: "higher"},
	{name: "campaign.warm_speedup", unit: "ratio", better: "higher"},
	{name: "grid.map_us_per_task", unit: "us", better: "lower"},
}

// metricValue is one reported number, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report shapes values as the result line's metrics object, one entry
// per definition; a definition without a value is a bug in the suite.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
