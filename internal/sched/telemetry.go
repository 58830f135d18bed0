package sched

import (
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// schedMetrics bundles the scheduler's instruments. They are the only
// counters the scheduler keeps: /metrics exposes them and Stats reads them
// back, so the two views cannot disagree. Without a Config.Registry they
// register against a private one nobody scrapes.
type schedMetrics struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	retries   *telemetry.Counter
	cache     *telemetry.CounterVec   // result: hit | miss
	finished  *telemetry.CounterVec   // state: completed | failed | cancelled
	latency   *telemetry.HistogramVec // class: batch | interactive
	journal   *telemetry.CounterVec   // type: submitted | started | checkpointed | finished
	journalEr *telemetry.Counter
	restored  *telemetry.CounterVec // disposition: finished | resumed
	expired   *telemetry.Counter
	// virtualSeconds bills the simulated wall time of every completed,
	// non-cached run; Stats-only, so it is not registered.
	virtualSeconds *telemetry.Counter

	// core carries the simulation-level instruments execute attaches to
	// each job's context; nil (a no-op for core) without a Config.Registry.
	core *core.Metrics
}

// newSchedMetrics registers the scheduler's instruments against
// Config.Registry. The queue/running/cache gauges read the scheduler live
// at scrape time, so they are exact, not sampled. Registering twice
// against one registry panics by design: share a registry across at most
// one scheduler.
func newSchedMetrics(s *Scheduler) *schedMetrics {
	reg := s.cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.NewGaugeFunc("hyperhet_sched_queue_depth",
		"Jobs waiting in the submission queue, both priority classes.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queuedLocked())
		})
	reg.NewGaugeFunc("hyperhet_sched_running",
		"Jobs currently executing on the worker pool.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	reg.NewGaugeFunc("hyperhet_sched_cache_entries",
		"Result-cache population.", func() float64 {
			return float64(s.cache.len())
		})
	reg.NewGaugeFunc("hyperhet_kernel_workers_in_use",
		"Borrowed helper goroutines currently executing data-parallel kernel chunks.",
		func() float64 {
			return float64(par.WorkersInUse())
		})
	reg.NewCounterFunc("hyperhet_sched_journal_syncs_total",
		"Job-journal batches written and fsync'd, one fsync each: records per fsync is the records total over this.",
		func() float64 {
			if jl := s.cfg.Journal; jl != nil {
				return float64(jl.syncs.Load())
			}
			return 0
		})
	reg.NewCounterFunc("hyperhet_kernel_parallel_chunks_total",
		"Chunks executed by the data-parallel kernel runtime across all fan-outs.",
		func() float64 {
			return float64(par.Snapshot().Chunks)
		})
	m := &schedMetrics{
		submitted: reg.NewCounter("hyperhet_sched_submitted_total",
			"Jobs admitted to the queue."),
		rejected: reg.NewCounter("hyperhet_sched_rejected_total",
			"Submissions rejected at admission (queue full or scheduler closed)."),
		retries: reg.NewCounter("hyperhet_sched_retries_total",
			"Execution attempts beyond each job's first."),
		cache: reg.NewCounterVec("hyperhet_sched_cache_requests_total",
			"Result-cache lookups by cacheable jobs, by outcome.", "result"),
		finished: reg.NewCounterVec("hyperhet_sched_jobs_finished_total",
			"Jobs settled, by final state.", "state"),
		latency: reg.NewHistogramVec("hyperhet_sched_job_seconds",
			"Job latency from submission to settlement, by priority class.",
			telemetry.DefBuckets, "class"),
		journal: reg.NewCounterVec("hyperhet_sched_journal_records_total",
			"Job-journal records appended and fsync'd, by record type.", "type"),
		journalEr: reg.NewCounter("hyperhet_sched_journal_errors_total",
			"Job-journal records whose batch failed to write or fsync (the job proceeds; durability degrades)."),
		restored: reg.NewCounterVec("hyperhet_sched_jobs_restored_total",
			"Jobs rebuilt from a replayed journal, by disposition.", "disposition"),
		// The name predates the scheduler owning queue expiry; metric
		// names are a contract, so it keeps it.
		expired: reg.NewCounter("hyperhet_guard_expired_total",
			"Queued jobs the scheduler's lazy queue expiry settled cancelled, unrun: their deadline passed before dispatch."),
		virtualSeconds: new(telemetry.Counter),
	}
	if s.cfg.Registry != nil {
		m.core = core.NewMetrics(reg)
	}
	return m
}

// count reads one counter back as the integer Stats reports.
func count(c *telemetry.Counter) uint64 { return uint64(c.Value()) }
