package core

import (
	"context"
	"strconv"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Metrics holds core's instruments. Construct one per registry with
// NewMetrics and attach it to a run via WithMetrics; a nil *Metrics is a
// valid no-op, so library callers that don't care about telemetry pay
// nothing. Metrics travels on the context rather than in Params because
// Params is part of the scheduler's result-cache key (rendered with %+v)
// and must stay a pure value type.
type Metrics struct {
	runsStarted     *telemetry.CounterVec
	runsFailed      *telemetry.Counter
	runsResumed     *telemetry.Counter
	virtualSeconds  *telemetry.CounterVec
	checkpointSaves *telemetry.Counter
	checkpointBytes *telemetry.Counter
	lastDAll        *telemetry.Gauge
	lastDMinus      *telemetry.Gauge
	balancedRuns    *telemetry.Counter
	stealEvents     *telemetry.Counter
	reassignedLines *telemetry.Counter
	lastDrift       *telemetry.Gauge

	// Per-rank MPI activity, aggregated across runs. Rank cardinality is
	// bounded by the largest simulated network, which the paper caps at
	// 16 processors.
	mpiMsgs  *telemetry.CounterVec // kind (send|recv), rank
	mpiBytes *telemetry.CounterVec // direction (sent|recv), rank
	mpiFlops *telemetry.CounterVec // rank
}

// NewMetrics registers core's instruments against reg. Call once per
// registry: registering the same names twice panics by design.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		runsStarted: reg.NewCounterVec("hyperhet_core_runs_started_total",
			"Simulated runs started, by algorithm.", "algorithm"),
		runsFailed: reg.NewCounter("hyperhet_core_runs_failed_total",
			"Simulated runs that returned an error."),
		runsResumed: reg.NewCounter("hyperhet_core_runs_resumed_total",
			"Runs whose successful attempt resumed from a checkpoint instead of round zero."),
		checkpointSaves: reg.NewCounter("hyperhet_core_checkpoint_saves_total",
			"Master round-state snapshots written."),
		checkpointBytes: reg.NewCounter("hyperhet_core_checkpoint_bytes_total",
			"Payload bytes written to checkpoint stores."),
		virtualSeconds: reg.NewCounterVec("hyperhet_core_virtual_seconds_total",
			"Root-timeline virtual time simulated, by category (PAR includes root idle, per the paper's convention).", "category"),
		lastDAll: reg.NewGauge("hyperhet_core_imbalance_d_all",
			"Load-imbalance ratio D_all of the most recent run."),
		lastDMinus: reg.NewGauge("hyperhet_core_imbalance_d_minus",
			"Load-imbalance ratio D_minus (root excluded) of the most recent run."),
		balancedRuns: reg.NewCounter("hyperhet_core_balanced_runs_total",
			"Runs whose parallel phases were scheduled demand-driven."),
		stealEvents: reg.NewCounter("hyperhet_core_balance_steal_events_total",
			"Chunk grants that reached outside the grantee's static WEA share."),
		reassignedLines: reg.NewCounter("hyperhet_core_balance_reassigned_lines_total",
			"Lines moved across static share boundaries by demand-driven grants."),
		lastDrift: reg.NewGauge("hyperhet_core_balance_estimator_drift",
			"Mean relative chunk-time prediction error of the most recent balanced run."),
		mpiMsgs: reg.NewCounterVec("hyperhet_mpi_messages_total",
			"Messages exchanged in successful runs, by kind and rank.", "kind", "rank"),
		mpiBytes: reg.NewCounterVec("hyperhet_mpi_bytes_total",
			"Bytes transferred in successful runs, by direction and rank.", "direction", "rank"),
		mpiFlops: reg.NewCounterVec("hyperhet_mpi_flops_total",
			"Floating-point operations charged in successful runs, by rank.", "rank"),
	}
}

func (m *Metrics) runStarted(alg Algorithm) {
	if m == nil {
		return
	}
	m.runsStarted.With(string(alg)).Inc()
}

func (m *Metrics) runFailed() {
	if m == nil {
		return
	}
	m.runsFailed.Inc()
}

func (m *Metrics) runDone(rep *RunReport) {
	if m == nil {
		return
	}
	if rep.ResumedFromRound > 0 {
		m.runsResumed.Inc()
	}
	m.virtualSeconds.With("COM").Add(rep.Com)
	m.virtualSeconds.With("SEQ").Add(rep.Seq)
	m.virtualSeconds.With("PAR").Add(rep.Par)
	m.lastDAll.Set(rep.DAll)
	m.lastDMinus.Set(rep.DMinus)
	if rep.Balanced {
		m.balancedRuns.Inc()
		m.stealEvents.Add(float64(rep.StealEvents))
		m.reassignedLines.Add(float64(rep.ReassignedLines))
		m.lastDrift.Set(rep.EstimatorDrift)
	}
}

func (m *Metrics) checkpointSaved(bytes int) {
	if m == nil {
		return
	}
	m.checkpointSaves.Inc()
	m.checkpointBytes.Add(float64(bytes))
}

// mpiRun folds one successful run's per-rank counters into the
// cross-run totals.
func (m *Metrics) mpiRun(ctrs []mpi.RankCounters) {
	if m == nil {
		return
	}
	for r, c := range ctrs {
		rank := strconv.Itoa(r)
		m.mpiMsgs.With("send", rank).Add(float64(c.Sends))
		m.mpiMsgs.With("recv", rank).Add(float64(c.Recvs))
		m.mpiBytes.With("sent", rank).Add(float64(c.BytesSent))
		m.mpiBytes.With("recv", rank).Add(float64(c.BytesRecv))
		m.mpiFlops.With(rank).Add(c.Flops)
	}
}

type metricsKey struct{}

// WithMetrics returns a context carrying m; runs started under it record
// into m's instruments.
func WithMetrics(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, metricsKey{}, m)
}

// MetricsFrom returns the Metrics carried by ctx, or nil (a valid no-op
// receiver) when none is attached.
func MetricsFrom(ctx context.Context) *Metrics {
	m, _ := ctx.Value(metricsKey{}).(*Metrics)
	return m
}
