package main

// metricDef names one reported metric. BENCHMARK.json repeats these lists;
// TestBenchmarkJSONMatchesHarness keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of hyperhetd sees; every workload reports all of
// them with tracing off. failed_share is carried by the result line's
// attempted/failed counts instead of a metric, because it is 0 when all is
// well.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer is the traced pass's budget, layer = module name. Source H is
// the client spans and the job/pipeline documents of the traced HTTP phase,
// M a /metrics or /stats delta over it, R the in-process layer replay. A
// metric of a layer the workload never enters reads 0.
var perLayer = []metricDef{
	// client (H)
	{"client.op_p99_ms", "ms"},
	{"client.polls_per_op", "count"},
	{"client.sched_lateness_ms_p99", "ms"},
	{"client.trace_overhead_pct", "%"},
	{"client.build_s", "s"},
	{"client.op_self_ms_p50", "ms"},
	// hyperhetd (H, M)
	{"hyperhetd.boot_ms", "ms"},
	{"hyperhetd.submit_rtt_ms_p50", "ms"},
	{"hyperhetd.submit_rtt_ms_p90", "ms"},
	{"hyperhetd.status_rtt_ms_p50", "ms"},
	{"hyperhetd.overhead_ms_p50", "ms"},
	{"hyperhetd.metrics_scrape_ms", "ms"},
	{"hyperhetd.log_records_per_op", "count"},
	{"hyperhetd.peak_rss_mb", "MB"},
	// sched (H, M)
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.queue_wait_ms_p90", "ms"},
	{"sched.run_ms_p50", "ms"},
	{"sched.run_ms_p90", "ms"},
	{"sched.cache_hit_ratio", "ratio"},
	{"sched.journal_records_per_op", "count"},
	{"sched.journal_bytes_per_op", "B"},
	{"sched.journal_errors", "count"},
	{"sched.retries", "count"},
	{"sched.rejected", "count"},
	{"sched.acked_not_durable", "count"},
	// sched (R)
	{"sched.journal_append_ms_p50", "ms"},
	{"sched.journal_replay_ms", "ms"},
	{"sched.journal_replay_records", "count"},
	{"sched.cube_digest_ms", "ms"},
	{"sched.cube_digest_gb_per_s", "GB/s"},
	{"sched.inproc_job_ms_p50", "ms"},
	{"sched.report_marshal_ms", "ms"},
	{"sched.report_kb", "KiB"},
	// scene, cube (R)
	{"scene.generate_ms", "ms"},
	{"scene.generate_mvoxel_per_s", "Mvoxel/s"},
	{"cube.interleave_ms", "ms"},
	{"cube.save_load_ms", "ms"},
	// core (R; H for the shares and the model time)
	{"core.run_ms.atdca", "ms"},
	{"core.run_ms.ufcls", "ms"},
	{"core.run_ms.pct", "ms"},
	{"core.run_ms.morph", "ms"},
	{"core.seq_ms.atdca", "ms"},
	{"core.seq_ms.ufcls", "ms"},
	{"core.seq_ms.pct", "ms"},
	{"core.seq_ms.morph", "ms"},
	{"core.com_share", "ratio"},
	{"core.seq_share", "ratio"},
	{"core.par_share", "ratio"},
	{"core.d_all_mean", "ratio"},
	{"core.model_vsec_per_op", "vsec"},
	// mpi (M exact; R)
	{"mpi.messages_per_op", "count"},
	{"mpi.mbytes_per_op", "MB"},
	{"mpi.mflops_per_op", "Mflop"},
	{"mpi.spinup_us", "us"},
	{"mpi.pingpong_us", "us"},
	// par (M; R)
	{"par.chunks_per_op", "count"},
	{"par.fanout_us", "us"},
	{"par.fanout_us_budget1", "us"},
	// kernels (R)
	{"spectral.sad_ns", "ns"},
	{"linalg.osp_apply_ns", "ns"},
	{"linalg.fcls_unmix_us", "us"},
	{"linalg.gram_us", "us"},
	{"morph.mei_ms", "ms"},
	{"morph.mei_mflops_per_s", "Mflop/s"},
	// flow (H, M; R)
	{"flow.orchestration_ms_p50", "ms"},
	{"flow.stage_ms_p50.analyze", "ms"},
	{"flow.stage_cache_hit_ratio", "ratio"},
	{"flow.inproc_pipeline_ms_p50", "ms"},
	// the remaining layers (R)
	{"partition.wea_us", "us"},
	{"balance.run_ms", "ms"},
	{"balance.d_all", "ratio"},
	{"balance.chunks", "count"},
	{"guard.admit_ns", "ns"},
	{"guard.observe_ns", "ns"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.kb", "KiB"},
	{"telemetry.write_prometheus_ms", "ms"},
	{"telemetry.series", "count"},
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of one build on one seed: counts the program makes, not times.
var exactCounts = []string{
	"core.model_vsec_per_op",
	"mpi.messages_per_op",
	"mpi.mbytes_per_op",
	"mpi.mflops_per_op",
	"sched.journal_records_per_op",
}

// bound is how far an end-to-end metric may worsen, as a share of the
// parent's median, before it counts as a regression; BENCHMARK.json carries
// it per metric. It is the contract's ceiling for all five: identical runs on
// the reference box differ by up to 21% (see README, Run-to-run agreement).
const bound = 0.25
