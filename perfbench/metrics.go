package main

// metricDef names one reported metric and its unit. The two tables below
// are the metric lists of BENCHMARK.json, in the same order; a test keeps
// them in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_ms.serial", "ms"},
	{"solve_ms.openmp", "ms"},
	{"solve_ms.cnc", "ms"},
	{"solve_ms.tuner", "ms"},
	{"solve_ms.manual", "ms"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"goodput_jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"bench.new_instance_ms", "ms"},
		{"bench.verify_ms", "ms"},
		{"kernels.calls", "count"},
	}
	for _, v := range solveVariants {
		m = append(m, metricDef{"kernels.busy_ms." + v.name, "ms"}, metricDef{"overhead_ms." + v.name, "ms"})
	}
	for _, v := range solveVariants {
		if !v.v.IsCnC() {
			continue
		}
		for _, c := range []metricDef{
			{"cnc.steps_started", "count"}, {"cnc.steps_done", "count"}, {"cnc.useful_ratio", "ratio"},
			{"cnc.aborts", "count"}, {"cnc.items_put", "count"}, {"cnc.steals", "count"},
			{"cnc.failed_probes", "count"}, {"cnc.wakeups", "count"},
		} {
			m = append(m, metricDef{c.name + "." + v.name, c.unit})
		}
	}
	m = append(m,
		metricDef{"cnc.backpressure_waits", "count"},
		metricDef{"cnc.backpressure_stalls", "count"},
		metricDef{"cnc.peak_live_mb", "MB"},
		metricDef{"forkjoin.spawned", "count"},
		metricDef{"forkjoin.steals", "count"},
		metricDef{"forkjoin.failed_probes", "count"},
		metricDef{"forkjoin.yields", "count"},
		metricDef{"exec.claims", "count"},
		metricDef{"exec.units", "count"},
		metricDef{"exec.units_per_claim", "ratio"},
		metricDef{"exec.parks", "count"},
		metricDef{"exec.wakeups", "count"},
		metricDef{"admission.wait_ms_p50", "ms"},
		metricDef{"admission.wait_ms_p90", "ms"},
		metricDef{"admission.max_queue_depth", "count"},
		metricDef{"admission.degradations", "count"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.status_ms", "ms"},
		metricDef{"serve.polls_per_job", "count"},
		metricDef{"serve.server_ms_p50", "ms"},
		metricDef{"serve.client_overhead_ms", "ms"},
		metricDef{"serve.metrics_ms", "ms"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.heap_peak_mb", "MB"},
		metricDef{"go.goroutines_peak", "count"},
		metricDef{"calib_ms.1", "ms"},
		metricDef{"calib_ms.2", "ms"},
	)
	for _, e := range endToEndMetrics {
		if e.name != "peak_rss_mb" {
			m = append(m, metricDef{"raw." + e.name, e.unit})
		}
	}
	return append(m,
		metricDef{"trace_overhead_frac", "frac"},
		metricDef{"failed_frac", "frac"},
		metricDef{"quiescence_checks", "count"},
	)
}()
