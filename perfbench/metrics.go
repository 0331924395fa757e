package main

import "fmt"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload reports all of them (README.md says what each means on
// each workload); BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"pf_speedup", "x"},
	{"pf_overprediction", "ratio"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module. A ratio or a
// per-unit figure is listed next to its base, a count or a time. A layer
// a workload does not exercise reports zero.
var perLayer = []metricDef{
	{"sim.specs", "count"},
	{"sim.traced_ops", "count"},
	{"sim.traced_s", "s"},
	{"sim.kinstr", "count"},

	{"core.train_ns", "ns"},
	{"core.train_calls", "count"},
	{"core.train_share", "ratio"},
	{"core.train_calls_per_kinstr", "1/kinstr"},
	{"core.prefetch_action_ratio", "ratio"},
	{"core.demands", "count"},

	{"prefetch.train_ns", "ns"},
	{"prefetch.train_calls", "count"},
	{"prefetch.train_share", "ratio"},

	{"stream.fill_s", "s"},
	{"stream.drain_mrec_per_s", "Mrec/s"},
	{"stream.drain_records", "count"},
	{"stream.cache_hit_ratio", "ratio"},
	{"stream.cache_lookups", "count"},

	{"trace.gen_mrec_per_s", "Mrec/s"},
	{"trace.gen_records", "count"},

	{"cpu.kernel_self_share", "ratio"},
	{"cpu.ns_per_kinstr", "ns"},
	{"cpu.ipc", "IPC"},

	{"cache.measured_kinstr", "count"},
	{"cache.l1_mpki", "MPKI"},
	{"cache.l2_mpki", "MPKI"},
	{"cache.llc_mpki", "MPKI"},
	{"cache.pf_accuracy", "ratio"},
	{"cache.pf_issued", "count"},
	{"cache.pf_late_ratio", "ratio"},
	{"cache.pf_useful", "count"},
	{"cache.pf_dropped_ratio", "ratio"},
	{"cache.pf_candidates", "count"},

	{"dram.reads_per_kinstr", "1/kinstr"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.accesses", "count"},
	{"dram.bus_util", "ratio"},
	{"dram.cycles", "count"},
	{"dram.high_bw_share", "ratio"},

	{"serve.jobs", "count"},
	{"serve.traced_jobs", "count"},
	{"serve.launch_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.simulate_ms", "ms"},
	{"serve.persist_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"harness.sims_per_job", "sims/job"},
	{"results.writes_per_job", "writes/job"},
	{"results.hit_ratio", "ratio"},
	{"results.lookups", "count"},
	{"results.get_us", "us"},
	{"results.get_samples", "count"},

	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.ops", "count"},

	{"host.steal_share", "ratio"},
	{"host.cpu_ticks", "count"},

	{"tracing.sim_rate_ratio", "ratio"},
	{"tracing.job_p50_ratio", "ratio"},
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) (string, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// complete checks that o holds exactly the metrics of its mode, filling
// the layers the workload did not exercise with zero.
func (o *outcome) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := o.metrics[d.name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		o.set(d.name, 0)
	}
	if len(o.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(o.metrics), len(want))
	}
	return nil
}
