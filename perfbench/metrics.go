package main

// metricDef is one reported metric. The end-to-end table and the
// per-layer table must match BENCHMARK.json at the repository root
// (checked by TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are measured with tracing off (--trace 0), in host time.
var endToEnd = []metricDef{
	{"slots_per_s", "1/s", "higher", 0.18},
	{"ns_per_access", "ns", "lower", 0.2},
	{"heap_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the traced run (--trace 1). A layer a workload
// bypasses reports 0. Simulated counts (ratios of simulated events) are
// identical for any change that only makes the simulator faster.
var perLayer = []metricDef{
	// Whole-run figures that are not gated: zero on healthy runs or on
	// some workloads, so they cannot carry a relative bound.
	{"allocs_per_slot", "count", "lower", 0},
	{"model_err", "ratio", "lower", 0},
	{"ops_failed_frac", "ratio", "lower", 0},
	{"ns_per_access_p90", "ns", "lower", 0},
	{"window.chunks", "count", "higher", 0},
	// Tracing itself.
	{"trace.slots_per_s", "1/s", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	// Sim engine.
	{"sim.self_ns_per_slot", "ns", "lower", 0},
	{"sim.self_share", "ratio", "lower", 0},
	{"sim.barrier_crossings_per_slot", "count", "lower", 0},
	// core.Partial.
	{"core.tick_ns_per_slot", "ns", "lower", 0},
	{"core.fold_share", "ratio", "lower", 0},
	{"core.retries_per_access", "ratio", "lower", 0},
	// cache.Protocol.
	{"cache.tick_ns_per_slot", "ns", "lower", 0},
	{"cache.issue_ns_per_op", "ns", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.retries_per_op", "ratio", "lower", 0},
	{"cache.invalidations_per_op", "ratio", "lower", 0},
	// att.Tracked, bank arena, workload generator.
	{"att.tick_ns_per_slot", "ns", "lower", 0},
	{"att.issue_ns_per_op", "ns", "lower", 0},
	{"att.restarts_per_op", "ratio", "lower", 0},
	{"att.aborts_per_write", "ratio", "lower", 0},
	{"memory.bank_accesses_per_slot", "count", "higher", 0},
	{"memory.bank_conflicts_per_access", "ratio", "lower", 0},
	{"workload.next_ns_per_call", "ns", "lower", 0},
	// Observability layers.
	{"metrics.sampler_ns_per_sample", "ns", "lower", 0},
	{"metrics.export_ns", "ns", "lower", 0},
	{"flight.events_per_slot", "count", "lower", 0},
	{"flight.dropped", "count", "lower", 0},
	{"flight.attribute_ns_per_event", "ns", "lower", 0},
	{"sim.checkpoint_mb_per_s", "MB/s", "higher", 0},
	{"sim.restore_mb_per_s", "MB/s", "higher", 0},
	{"sim.checkpoint_bytes", "bytes", "lower", 0},
}

// worseBy reports how much worse cur is than base for metric d, as a
// share of base (positive = worse), the way a regression gate compares
// medians.
func worseBy(d metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}
