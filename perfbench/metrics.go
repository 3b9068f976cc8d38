package main

// metric names one reported metric and its unit.
type metric struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json's order.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"campaign_ms.p50", "ms"},
	{"campaign_ms.p90", "ms"},
	{"requests_per_s", "1/s"},
	{"evals_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"speedup_geomean", "x"},
}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json's order. A metric of a layer the workload
// does not call reads 0.
var layerMetrics = []metric{
	{"outline.auto_outline_ms", "ms"},
	{"compiler.prepare_us", "us"},
	{"compiler.compile_uniform_us", "us"},
	{"compiler.compile_assembly_us", "us"},
	{"compiler.object_hit_ratio", "ratio"},
	{"compiler.link_hit_ratio", "ratio"},
	{"compiler.alloc_kb_per_compile", "KB"},
	{"exec.run_us", "us"},
	{"caliper.collect_us", "us"},
	{"search.suggest_us.cfr", "us"},
	{"search.suggest_us.bo", "us"},
	{"search.suggest_us.ga", "us"},
	{"search.observe_us.cfr", "us"},
	{"search.observe_us.bo", "us"},
	{"search.observe_us.ga", "us"},
	{"search.suggest_ms_per_campaign.cfr", "ms"},
	{"search.suggest_ms_per_campaign.bo", "ms"},
	{"search.suggest_ms_per_campaign.ga", "ms"},
	{"core.collect_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.unaccounted_share", "ratio"},
	{"core.checkpoint_flush_ms", "ms"},
	{"core.checkpoint_kb", "KB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_mb_per_campaign", "MB"},
	{"trace.replay_ms", "ms"},
	{"resultrepo.get_us", "us"},
	{"resultrepo.put_ms", "ms"},
	{"resultrepo.entry_kb", "KB"},
	{"resultrepo.serve_tune_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.gate_high_water", "count"},
	{"server.heap_kb_per_retained_job", "KB"},
	{"fleet.claim_rtt_us", "us"},
	{"fleet.report_rtt_us", "us"},
	{"fleet.claimbatch_rtt_us", "us"},
	{"fleet.reportbatch_rtt_us", "us"},
	{"fleet.heartbeat_rtt_us", "us"},
	{"fleet.requests_per_eval", "count"},
	{"fleet.request_bytes_per_eval", "B"},
	{"fleet.tasks_per_claimbatch", "count"},
	{"fleet.remote_eval_ms", "ms"},
	{"fleet.eval_service_us", "us"},
	{"fleet.requeues", "count"},
	{"fleet.lease_losses", "count"},
	{"fleet.journal.evals_per_s", "1/s"},
	{"fleet.journal.reportbatch_rtt_us", "us"},
	{"fleet.journal.bytes_per_eval", "B"},
	{"fleet.journal.heap_mb", "MB"},
	{"self.outline_share", "ratio"},
	{"self.compiler_share", "ratio"},
	{"self.exec_share", "ratio"},
	{"self.caliper_share", "ratio"},
	{"self.search_share", "ratio"},
	{"self.core_share", "ratio"},
	{"self.trace_share", "ratio"},
	{"self.resultrepo_share", "ratio"},
	{"self.server_share", "ratio"},
	{"self.fleet_share", "ratio"},
	{"self.unaccounted_share", "ratio"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, ms := range [][]metric{e2eMetrics, layerMetrics} {
		for _, x := range ms {
			m[x.name] = x.unit
		}
	}
	return m
}()
