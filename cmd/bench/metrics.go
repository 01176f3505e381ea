package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, printed by every workload with
// -trace 0. The bounds come from two batches of ten runs per workload on
// the reference host: about three times the widest interquartile spread
// seen, capped at the contract's 25% (see README.md, "Bounds").
var endToEnd = []metricDef{
	{"mpart_per_s", "Mpart/s", "higher", 0.20},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ungated metrics, printed by every workload with
// -trace 1. A layer that is not on a workload's blocking path is still
// measured there (on the workload's own mesh, or as a host property), so
// the "should stay flat" side of every prediction has a number.
var perLayer = []metricDef{
	{"step_ms_tail", "ms", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},

	{"push.ns_per_particle", "ns", "lower", 0},
	{"push.bytes_per_particle", "B", "lower", 0},
	{"push.flops_per_byte", "flop/B", "higher", 0},
	{"push.movers_per_kpart", "1/kpart", "lower", 0},
	{"push.share_pct", "%", "lower", 0},

	{"sort.ns_per_particle", "ns", "lower", 0},
	{"sort.bytes_per_particle", "B", "lower", 0},
	{"sort.share_pct", "%", "lower", 0},

	{"accum.clear_us", "us", "lower", 0},
	{"accum.reduce_us", "us", "lower", 0},
	{"accum.unload_us", "us", "lower", 0},
	{"interp.load_us", "us", "lower", 0},
	{"pipe.dispatch_us", "us", "lower", 0},

	{"field.advance_b_us", "us", "lower", 0},
	{"field.advance_e_us", "us", "lower", 0},
	{"field.clean_us", "us", "lower", 0},
	{"field.mcells_per_s", "Mcell/s", "higher", 0},

	{"domain.msgs_per_step", "count", "lower", 0},
	{"domain.bytes_per_step", "B", "lower", 0},
	{"domain.exchange_us", "us", "lower", 0},

	{"mp.rtt_us", "us", "lower", 0},
	{"mp.allreduce_us", "us", "lower", 0},

	{"transport.rtt_us_p50", "us", "lower", 0},
	{"transport.rtt16k_us_p50", "us", "lower", 0},
	{"transport.mb_per_s", "MB/s", "higher", 0},
	{"transport.codec_ns_per_particle", "ns", "lower", 0},
	{"comm_wait_share", "ratio", "lower", 0},

	{"core.residual_pct", "%", "lower", 0},
	{"core.checkpoint_mb", "MB", "lower", 0},
	{"core.checkpoint_write_ms", "ms", "lower", 0},
	{"core.restore_ms", "ms", "lower", 0},

	{"server.submit_ms", "ms", "lower", 0},
	{"server.job_s_p50", "s", "lower", 0},
	{"server.jobs_per_s", "1/s", "higher", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.checkpoint_writes", "count", "lower", 0},

	{"model.push_residual_pct", "%", "lower", 0},
	{"model.step_efficiency", "ratio", "higher", 0},
	{"model.roadrunner_residual_pct", "%", "lower", 0},
}

// metric is one measured value as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of a single-workload run's standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect builds the result metrics for defs from measured values; a
// metric the run did not produce is a bug in the benchmark and reported
// as one rather than silently dropped.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}
