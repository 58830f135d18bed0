package flow

import "repro/internal/telemetry"

// flowMetrics bundles the engine's instruments. As in the scheduler they
// are always built — against a private registry nobody scrapes when
// Config.Registry is nil — so the orchestration path carries no telemetry
// conditionals.
type flowMetrics struct {
	submitted *telemetry.Counter
	finished  *telemetry.CounterVec   // state: completed | failed | cancelled
	outcomes  *telemetry.CounterVec   // outcome: completed | failed | skipped | resumed
	cache     *telemetry.CounterVec   // result: hit | miss
	latency   *telemetry.HistogramVec // kind: scene | analyze | synthesize
	restored  *telemetry.CounterVec   // disposition: finished | resumed
}

// newFlowMetrics registers the engine's instruments against
// Config.Registry. The gauges read the engine live at scrape time.
// Registering twice against one registry panics by design: one engine per
// registry.
func newFlowMetrics(e *Engine) *flowMetrics {
	reg := e.cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.NewGaugeFunc("hyperhet_flow_pipelines_active",
		"Pipelines currently running.", func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.active)
		})
	reg.NewGaugeFunc("hyperhet_flow_stages_running",
		"Pipeline stages currently executing, across all pipelines.", func() float64 {
			return float64(e.running.Load())
		})
	return &flowMetrics{
		submitted: reg.NewCounter("hyperhet_flow_pipelines_submitted_total",
			"Pipelines admitted (fresh and journal-resumed)."),
		finished: reg.NewCounterVec("hyperhet_flow_pipelines_finished_total",
			"Pipelines settled, by final state.", "state"),
		outcomes: reg.NewCounterVec("hyperhet_flow_stage_outcomes_total",
			"Stage settlements: completed and failed ran here; skipped lost an upstream dependency; resumed was restored from the journal.", "outcome"),
		cache: reg.NewCounterVec("hyperhet_flow_stage_cache_total",
			"Cache consultations by scene and analyze stages, by outcome. Hits skip recomputation entirely.", "result"),
		latency: reg.NewHistogramVec("hyperhet_flow_stage_seconds",
			"Stage latency from launch to settlement (real time, not simulated), by stage kind.",
			telemetry.DefBuckets, "kind"),
		restored: reg.NewCounterVec("hyperhet_flow_pipelines_restored_total",
			"Pipelines rebuilt from a replayed journal, by disposition.", "disposition"),
	}
}
