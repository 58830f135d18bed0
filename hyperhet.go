// Package hyperhet is a Go reproduction of "Heterogeneous Parallel
// Computing in Remote Sensing Applications: Current Trends and Future
// Perspectives" (A. Plaza, IEEE CLUSTER 2006): heterogeneity-aware
// parallel algorithms for target detection (ATDCA, UFCLS) and
// unsupervised classification (PCT, MORPH) of hyperspectral imagery,
// together with the simulated heterogeneous platforms, the message-
// passing substrate and the experiment drivers that regenerate every
// table and figure of the paper's evaluation.
//
// The package is a facade over the internal packages; see README.md for a
// tour and DESIGN.md for the architecture. Every parallel run goes
// through Run (or RunContext) with one of three variants: Hetero (WEA
// shares), Homo (equal shares) or Adaptive (the paper's future-work
// dynamic load balancing, ATDCA only).
//
// # Quick start
//
//	sc, err := hyperhet.GenerateScene(hyperhet.DefaultSceneConfig())
//	if err != nil { ... }
//	net := hyperhet.FullyHeterogeneous()
//	rep, err := hyperhet.Run(net, hyperhet.ATDCA, hyperhet.Hetero, sc.Cube, hyperhet.DefaultParams())
//	if err != nil { ... }
//	fmt.Printf("found %d targets in %.1f virtual seconds\n",
//	    len(rep.Detection.Targets), rep.WallTime)
package hyperhet

import (
	"context"
	"io"
	"log/slog"
	"runtime"

	"repro/internal/algo"
	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/spectral"
	"repro/internal/telemetry"
)

// Core data types.
type (
	// Cube is a hyperspectral image cube (lines x samples x bands,
	// band-interleaved-by-pixel).
	Cube = cube.Cube
	// Scene is a synthetic AVIRIS-like scene with ground truth.
	Scene = scene.Scene
	// SceneConfig parameterizes scene generation.
	SceneConfig = scene.Config
	// GroundTruth carries hot-spot and class-map truth for scoring.
	GroundTruth = scene.GroundTruth
	// HotSpot is one planted thermal target.
	HotSpot = scene.HotSpot
	// Network is a parallel platform description.
	Network = platform.Network
	// Processor is one machine of a platform.
	Processor = platform.Processor
)

// Algorithms, variants and parameters.
type (
	// Algorithm names one of the paper's four analysis algorithms.
	Algorithm = core.Algorithm
	// Variant selects how rows reach processors: heterogeneous (WEA) or
	// homogeneous partitioning, or the Adaptive schedule.
	Variant = core.Variant
	// Params bundles the per-algorithm parameters.
	Params = core.Params
	// PCTParams configures the PCT classifier.
	PCTParams = algo.PCTParams
	// MorphParams configures the morphological classifier.
	MorphParams = algo.MorphParams
	// DetectionParams configures the target detectors.
	DetectionParams = algo.DetectionParams
	// RunReport is the outcome of one simulated run.
	RunReport = core.RunReport
	// DetectionResult is the output of ATDCA or UFCLS.
	DetectionResult = algo.DetectionResult
	// ClassificationResult is the output of PCT or MORPH.
	ClassificationResult = algo.ClassificationResult
	// Target is one detected target pixel.
	Target = algo.Target
	// Accuracy reports classification quality against ground truth.
	Accuracy = metrics.Accuracy
)

// The four algorithms of the paper, its two partitioning variants, and
// Adaptive, its future-work dynamic load balancing (ATDCA only): equal
// initial shares re-partitioned between rounds from measured busy times
// whenever the busiest worker's exceeds the least busy one's by more than
// 15%, converging to WEA-grade balance without knowing the cycle-times.
// It honours a checkpointer and Params.Trace like any run and ignores a
// balance policy. Its convergence trace is RunReport.Adaptive.
const (
	ATDCA    = core.ATDCA
	UFCLS    = core.UFCLS
	PCT      = core.PCT
	MORPH    = core.MORPH
	Hetero   = core.Hetero
	Homo     = core.Homo
	Adaptive = core.Adaptive
)

// Algorithms lists the four algorithms in the paper's table order.
var Algorithms = core.Algorithms

// Variants lists the paper's two partitioning variants.
var Variants = core.Variants

// Scenes.

// ClassNames are the seven USGS dust/debris classes of Table 4.
var ClassNames = scene.ClassNames

// HotSpotLabels are the thermal hot spots A-G of Fig. 1.
var HotSpotLabels = scene.HotSpotLabels

// NumClasses is the paper's c=7 debris classes.
const NumClasses = scene.NumClasses

// GenerateScene builds a synthetic AVIRIS-like World Trade Center scene
// with ground truth.
func GenerateScene(cfg SceneConfig) (*Scene, error) { return scene.Generate(cfg) }

// DefaultSceneConfig is the reduced-resolution analogue of the paper's
// AVIRIS scene used by the experiment drivers.
func DefaultSceneConfig() SceneConfig { return scene.WTCDefault() }

// FullSceneConfig is the paper's full 2133x512x224 geometry (expensive).
func FullSceneConfig() SceneConfig { return scene.WTCFull() }

// LoadCube reads a cube from the repository's single-file format.
func LoadCube(path string) (*Cube, error) { return cube.Load(path) }

// Interleave names a sample ordering (BIP, BIL, BSQ).
type Interleave = cube.Interleave

// The three standard sample orderings.
const (
	BIP = cube.BIP
	BIL = cube.BIL
	BSQ = cube.BSQ
)

// ENVIHeader is the subset of ENVI header fields the loader handles.
type ENVIHeader = cube.ENVIHeader

// LoadENVI reads an ENVI header/data pair (the format AVIRIS products and
// most hyperspectral toolchains use) into a cube.
func LoadENVI(hdrPath string) (*Cube, *ENVIHeader, error) { return cube.LoadENVI(hdrPath) }

// SaveENVI writes the cube as an ENVI pair (basePath.hdr + basePath.img).
func SaveENVI(c *Cube, basePath string, il Interleave) error { return c.SaveENVI(basePath, il) }

// SaveQuicklook writes the Figure 1 false-color composite (1682/1107/655
// nm to RGB, percentile-stretched) as a PPM image.
func SaveQuicklook(path string, c *Cube) error { return scene.SaveQuicklook(path, c) }

// NewCube allocates a zero-filled cube.
func NewCube(lines, samples, bands int) (*Cube, error) { return cube.New(lines, samples, bands) }

// Platforms.

// FullyHeterogeneous returns the paper's 16-workstation heterogeneous
// network (Tables 1-2).
func FullyHeterogeneous() *Network { return platform.FullyHeterogeneous() }

// FullyHomogeneous returns the equivalent homogeneous network.
func FullyHomogeneous() *Network { return platform.FullyHomogeneous() }

// PartiallyHeterogeneous returns heterogeneous processors on homogeneous
// links.
func PartiallyHeterogeneous() *Network { return platform.PartiallyHeterogeneous() }

// PartiallyHomogeneous returns homogeneous processors on heterogeneous
// links.
func PartiallyHomogeneous() *Network { return platform.PartiallyHomogeneous() }

// UMDNetworks returns the four evaluation networks in the paper's order.
func UMDNetworks() []*Network { return platform.UMDNetworks() }

// Thunderhead models p nodes (1..256) of NASA Goddard's Beowulf cluster.
func Thunderhead(p int) (*Network, error) { return platform.Thunderhead(p) }

// Execution.

// DefaultParams returns the paper's parameter choices (t=18 targets,
// c=7 classes, I_max=5).
func DefaultParams() Params { return core.DefaultParams() }

// Run executes one algorithm variant on a simulated network and reports
// results plus virtual-time performance figures.
func Run(net *Network, alg Algorithm, v Variant, f *Cube, p Params) (*RunReport, error) {
	return core.Run(net, alg, v, f, p)
}

// AdaptiveTrace records an Adaptive run's per-round imbalance and
// re-partitions.
type AdaptiveTrace = algo.AdaptiveTrace

// RunSequential executes the single-threaded baseline on one processor of
// the given cycle-time (seconds per megaflop).
func RunSequential(cycleTime float64, alg Algorithm, f *Cube, p Params) (*RunReport, error) {
	return core.RunSequential(cycleTime, alg, f, p)
}

// Cancellable execution: the context variants abort an in-flight
// simulated run promptly when ctx is cancelled or its deadline passes,
// returning an error that satisfies errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded).

// RunContext is Run under a cancellation context.
func RunContext(ctx context.Context, net *Network, alg Algorithm, v Variant, f *Cube, p Params) (*RunReport, error) {
	return core.RunContext(ctx, net, alg, v, f, p)
}

// RunSequentialContext is RunSequential under a cancellation context.
func RunSequentialContext(ctx context.Context, cycleTime float64, alg Algorithm, f *Cube, p Params) (*RunReport, error) {
	return core.RunSequentialContext(ctx, cycleTime, alg, f, p)
}

// Fault injection: deterministic failure plans consulted by the message
// layer at every virtual-time charge, and typed failure errors. A run is
// one attempt; re-running a failed job — on the survivors with
// JobSpec.Recovery — is the scheduler's.
type (
	// FaultPlan is one reproducible failure scenario (crashes, link
	// slowdowns, compute degradations) injected into a simulated run via
	// Params.Faults. The zero value injects nothing.
	FaultPlan = fault.Plan
	// FaultCrash kills one rank at a virtual time.
	FaultCrash = fault.Crash
	// FaultLinkSlow stretches transfers on one link over a window.
	FaultLinkSlow = fault.LinkSlow
	// FaultDegrade slows one rank's compute over a window.
	FaultDegrade = fault.Degrade
	// RandomFaultConfig tunes RandomFaultPlan.
	RandomFaultConfig = fault.RandomConfig
	// RankFailedError is the typed error for an injected rank death; match
	// with errors.Is(err, ErrRankFailed) or errors.As.
	RankFailedError = mpi.RankFailedError
)

// Typed failure sentinels for errors.Is triage of failed runs.
var (
	// ErrRankFailed matches errors from a rank killed by a fault plan.
	ErrRankFailed = mpi.ErrRankFailed
	// ErrCascade matches errors from ranks aborted because another rank
	// failed first (the failure's origin carries ErrRankFailed instead).
	ErrCascade = mpi.ErrCascade
)

// RandomFaultPlan generates a reproducible failure plan from a seed: the
// same (seed, cfg) always yields the identical plan, which — combined
// with deterministic virtual time — makes chaos experiments replayable.
func RandomFaultPlan(seed int64, cfg RandomFaultConfig) (*FaultPlan, error) {
	return fault.Random(seed, cfg)
}

// RetryableError reports whether a failed run is worth retrying: injected
// faults and cascades are transient by construction; anything else (bad
// specs, cancellation) is permanent.
func RetryableError(err error) bool { return mpi.IsRetryable(err) }

// Serving: the concurrent analysis-job scheduler behind cmd/hyperhetd.
type (
	// Scheduler multiplexes analysis jobs over a worker pool with a
	// bounded admission queue, priorities, deadlines and a result cache.
	Scheduler = sched.Scheduler
	// SchedulerConfig parameterizes NewScheduler.
	SchedulerConfig = sched.Config
	// JobSpec describes one analysis job for Scheduler.Submit.
	JobSpec = sched.JobSpec
	// Job is a submitted analysis job.
	Job = sched.Job
	// JobStatus is a JSON-shaped snapshot of a job.
	JobStatus = sched.JobStatus
	// JobState is a job's lifecycle state.
	JobState = sched.State
	// JobMode selects the execution entry point of a job.
	JobMode = sched.Mode
	// JobPriority is a job's scheduling class.
	JobPriority = sched.Priority
	// SchedulerStats is a snapshot of the scheduler's counters.
	SchedulerStats = sched.Stats
	// JobAttempt records one execution attempt of a retried job.
	JobAttempt = sched.AttemptRecord
	// SceneCache turns scene configs into what jobs and pipelines need —
	// lazy Materialize handles, memoized cube digests, a FlowSceneProvider
	// — over one single-flight cache bounded in bytes.
	SceneCache = sched.SceneCache
	// SceneCacheStats is a snapshot of a SceneCache's occupancy and
	// counters.
	SceneCacheStats = sched.SceneCacheStats
)

// Scheduling classes, job modes and lifecycle states.
const (
	Batch          = sched.Batch
	Interactive    = sched.Interactive
	ModeRun        = sched.ModeRun
	ModeSequential = sched.ModeSequential
	JobQueued      = sched.StateQueued
	JobRunning     = sched.StateRunning
	JobCompleted   = sched.StateCompleted
	JobFailed      = sched.StateFailed
	JobCancelled   = sched.StateCancelled
)

// Scheduler admission and lookup errors.
var (
	ErrQueueFull       = sched.ErrQueueFull
	ErrSchedulerClosed = sched.ErrClosed
	ErrUnknownJob      = sched.ErrUnknownJob
)

// NewScheduler starts a job scheduler; Close it when done. Jobs are
// submitted with Submit, awaited with Job.Done, observed with Stats.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sched.New(cfg) }

// NewSceneCache returns an empty scene cache holding up to 64 MiB of
// cubes and 4096 digests.
func NewSceneCache() *SceneCache { return sched.NewSceneCache() }

// ParseJobPriority maps "interactive" or "batch" (or "") to a JobPriority.
func ParseJobPriority(s string) (JobPriority, error) { return sched.ParsePriority(s) }

// ParseAlgorithm maps "atdca", "ufcls", "pct" or "morph" (any case) to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParseVariant maps "hetero" or "homo" (any case, "" is Hetero) to a Variant.
func ParseVariant(s string) (Variant, error) { return core.ParseVariant(s) }

// NetworkByName maps "fully-het", "fully-homo", "part-het", "part-homo" or
// "thunderhead" (any case; cpus is Thunderhead's node count) to its Network.
func NetworkByName(name string, cpus int) (*Network, error) { return platform.ByName(name, cpus) }

// SchedCubeDigest returns the scene component of the scheduler's result
// cache key; precompute it when submitting one cube many times.
func SchedCubeDigest(f *Cube) string { return sched.CubeDigest(f) }

// Durability: round-boundary checkpoint/resume for the run drivers, and
// the scheduler's append-only job journal behind hyperhetd's -journal
// flag. Attach a Checkpointer to a run context with WithCheckpointer (or
// set JobSpec.Checkpoint on a scheduler job) and an interrupted execution
// resumes from its last completed round instead of round zero; pair the
// scheduler with a journal (SchedulerConfig.Journal) and the whole job
// table — finished results and in-flight resume state — survives a
// process restart.
type (
	// Checkpointer stores and serves master round-state snapshots.
	Checkpointer = checkpoint.Checkpointer
	// CheckpointSnapshot is one saved master round state.
	CheckpointSnapshot = checkpoint.Snapshot
	// CheckpointMemStore is an in-memory Checkpointer (zero value ready):
	// attach it with WithCheckpointer, and a rerun in the same process
	// resumes where the last run saved.
	CheckpointMemStore = checkpoint.MemStore
	// SchedJournal is the scheduler's append-only, group-committed job
	// journal (one write and one fsync per batch of pending records); pass
	// it via SchedulerConfig.Journal and close it after the scheduler.
	SchedJournal = sched.Journal
	// JournalJob is one job's folded journal story from a replay;
	// FlowEngine.Recover restores or resumes it.
	JournalJob = sched.JournalJob
)

// WithCheckpointer attaches a checkpoint store to a run context: the run
// then saves a snapshot at every completed round and, when the store
// already holds one, resumes from it (RunReport.ResumedFromRound).
func WithCheckpointer(ctx context.Context, ck Checkpointer) context.Context {
	return core.WithCheckpointer(ctx, ck)
}

// BalancePolicy configures demand-driven chunk scheduling: when enabled,
// the master grants line-range chunks on request, sized by an online
// per-rank throughput estimator, instead of fixing shares up front with
// WEA. Outputs are byte-identical to the static schedule; only the
// virtual timings and the report's balance accounting change.
type BalancePolicy = balance.Policy

// DefaultBalancePolicy returns an enabled policy with default tuning.
func DefaultBalancePolicy() BalancePolicy { return balance.DefaultPolicy() }

// WithBalance attaches a demand-driven balance policy to a run context
// (see BalancePolicy). Scheduler jobs opt in with JobSpec.Balance;
// hyperhetd with a "balance": true submit field.
func WithBalance(ctx context.Context, pol BalancePolicy) context.Context {
	return core.WithBalance(ctx, pol)
}

// OpenSchedJournal opens (creating as needed) the scheduler job journal
// in dir, positioned for appending. Replay existing records first with
// ReplaySchedJournalState; close the journal after the scheduler.
func OpenSchedJournal(dir string) (*SchedJournal, error) { return sched.OpenJournal(dir) }

// Telemetry: dependency-free instrumentation behind hyperhetd's /metrics
// endpoint. Pass a registry to SchedulerConfig.Registry to instrument a
// scheduler (and, through it, the simulation layers).
type (
	// TelemetryRegistry holds metric instruments and renders them in the
	// Prometheus text exposition format.
	TelemetryRegistry = telemetry.Registry
	// MPIEvent is one traced virtual-time activity of one rank; a
	// completed traced run's events live in RunReport.TraceEvents.
	MPIEvent = mpi.Event
	// MPIRankCounters aggregates one rank's message and compute activity
	// over a run (RunResult-level; the registry carries cross-run totals).
	MPIRankCounters = mpi.RankCounters
)

// NewTelemetryRegistry creates an empty metric registry. Its Handler
// method serves GET /metrics.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewCountingLogHandler wraps a slog.Handler so every record is counted
// into reg (hyperhet_log_records_total{level}) before being delegated.
func NewCountingLogHandler(reg *TelemetryRegistry, next slog.Handler) slog.Handler {
	return telemetry.NewLogHandler(reg, next)
}

// WriteChromeTrace exports traced run events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one thread
// row per rank, receive waits split into separate idle slices.
func WriteChromeTrace(w io.Writer, events []MPIEvent) error {
	return mpi.WriteChromeTrace(w, events)
}

// Scoring.

// DetectionScores returns the Table 3 measure: per hot spot, the SAD
// between the known target pixel and the most similar detection.
func DetectionScores(sc *Scene, det *DetectionResult) map[string]float64 {
	return metrics.DetectionScores(sc, det)
}

// ClassificationAccuracy scores predicted labels against a ground-truth
// class map (entries < 0 ignored) under the best one-to-one label
// mapping.
func ClassificationAccuracy(truth []int, numClasses int, pred []int) (Accuracy, error) {
	return metrics.Classification(truth, numClasses, pred)
}

// SAD returns the spectral angle distance between two signatures.
func SAD(a, b []float32) float64 { return spectral.SAD(a, b) }

// Experiments: the paper's evaluation, one driver per table/figure.
type (
	// ExperimentConfig selects scenes and parameters for the evaluation.
	ExperimentConfig = experiments.Config
	// Table3Result is the detection accuracy study.
	Table3Result = experiments.Table3Result
	// Table4Result is the classification accuracy study.
	Table4Result = experiments.Table4Result
	// NetworkSuiteResult powers Tables 5-7.
	NetworkSuiteResult = experiments.NetworkSuiteResult
	// ThunderheadResult powers Table 8 and Figure 2.
	ThunderheadResult = experiments.ThunderheadResult
)

// DefaultExperimentConfig mirrors the paper's setup at single-machine
// scale.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// ScaledParams adapts parameters to a reduced scene so a run simulates
// the paper's full-size 2133x512x224 problem in the virtual-time model:
// per-pixel computation is scaled up to full-scene magnitude while
// communication stays as-is, preserving the paper's compute-to-
// communication balance. Use it whenever timing shape matters; plain
// DefaultParams times a run at the reduced scene's own scale.
func ScaledParams(p Params, cfg SceneConfig) Params { return experiments.ScaledParams(p, cfg) }

// Table3 reproduces the target detection accuracy study.
func Table3(cfg ExperimentConfig) (*Table3Result, error) { return experiments.Table3(cfg) }

// Table4 reproduces the classification accuracy study.
func Table4(cfg ExperimentConfig) (*Table4Result, error) { return experiments.Table4(cfg) }

// NetworkSuite reproduces Tables 5-7 (32 runs over the four UMD
// networks).
func NetworkSuite(cfg ExperimentConfig) (*NetworkSuiteResult, error) {
	return experiments.NetworkSuite(cfg)
}

// ThunderheadStudy reproduces Table 8 and Figure 2 (scalability on up to
// 256 nodes).
func ThunderheadStudy(cfg ExperimentConfig) (*ThunderheadResult, error) {
	return experiments.Thunderhead(cfg)
}

// Rendering: text tables in the paper's layout.

// RenderTable1 prints the heterogeneous processor specifications.
func RenderTable1() string { return report.Table1() }

// RenderTable2 prints the link capacity matrix.
func RenderTable2() string { return report.Table2() }

// RenderTable3 prints the detection accuracy study.
func RenderTable3(r *Table3Result) string { return report.Table3(r) }

// RenderTable4 prints the classification accuracy study.
func RenderTable4(r *Table4Result) string { return report.Table4(r) }

// RenderTable5 prints the execution-time table.
func RenderTable5(r *NetworkSuiteResult) string { return report.Table5(r) }

// RenderTable6 prints the COM/SEQ/PAR decomposition.
func RenderTable6(r *NetworkSuiteResult) string { return report.Table6(r) }

// RenderTable7 prints the load-balancing rates.
func RenderTable7(r *NetworkSuiteResult) string { return report.Table7(r) }

// RenderTable8 prints the Thunderhead execution times.
func RenderTable8(r *ThunderheadResult) string { return report.Table8(r) }

// RenderFigure2 prints the Thunderhead speedup series and an ASCII plot.
func RenderFigure2(r *ThunderheadResult) string { return report.Figure2(r) }

// Pipelines: analysis workflows over the scheduler. A pipeline is a star
// of named stages — one scene generation, the algorithm runs on that
// scene (executed concurrently), and an optional accuracy synthesis over
// all of them — with per-stage memoization through the scheduler's
// result cache and, when paired with a journal, durable resume across
// restarts.
type (
	// FlowEngine orchestrates pipelines over a Scheduler.
	FlowEngine = flow.Engine
	// FlowConfig parameterizes NewFlowEngine.
	FlowConfig = flow.Config
	// FlowSceneProvider materializes scene stages (hyperhetd passes its
	// SceneCache's Provide; nil gives the engine a private SceneCache).
	FlowSceneProvider = flow.SceneProvider
	// PipelineSpec describes one pipeline submission.
	PipelineSpec = flow.PipelineSpec
	// StageSpec describes one pipeline stage.
	StageSpec = flow.StageSpec
	// StageKind is the type of work a stage performs; the kinds fix a
	// pipeline's star shape.
	StageKind = flow.StageKind
	// FlowPipeline is one submitted pipeline.
	FlowPipeline = flow.Pipeline
	// PipelineState is a pipeline's lifecycle state.
	PipelineState = flow.PipelineState
	// PipelineStatus is a JSON-shaped snapshot of a pipeline.
	PipelineStatus = flow.PipelineStatus
	// StageStatus is a JSON-shaped snapshot of one stage.
	StageStatus = flow.StageStatus
	// Synthesis is a synthesize stage's output: upstream reports scored
	// against ground truth (the Table 3 + Table 4 story) plus timing.
	Synthesis = flow.Synthesis
	// JournalPipeline is one pipeline's folded journal story from a
	// replay; FlowEngine.Recover restores or resumes it.
	JournalPipeline = sched.JournalPipeline
	// SchedJournalState is a full journal replay: job stories, pipeline
	// stories and replay health counters. FlowEngine.Recover reinstalls it
	// into a fresh scheduler and engine, the one boot path of a durable
	// process.
	SchedJournalState = sched.JournalState
	// SchedReplayStats counts what a journal replay read and dropped.
	SchedReplayStats = sched.ReplayStats
)

// Stage kinds.
const (
	StageScene      = flow.KindScene
	StageAnalyze    = flow.KindAnalyze
	StageSynthesize = flow.KindSynthesize
)

// Pipeline admission and lookup errors.
var (
	ErrInvalidPipeline  = flow.ErrInvalidPipeline
	ErrTooManyPipelines = flow.ErrTooManyPipelines
	ErrUnknownPipeline  = flow.ErrUnknownPipeline
	ErrFlowEngineClosed = flow.ErrEngineClosed
)

// NewFlowEngine starts a pipeline engine over cfg.Scheduler; Close it
// when done (before the scheduler).
func NewFlowEngine(cfg FlowConfig) (*FlowEngine, error) { return flow.New(cfg) }

// ReplaySchedJournalState folds the journal in dir into job stories,
// pipeline stories and replay counters. A missing journal yields
// (nil, nil); a torn tail truncates the readable log without error.
func ReplaySchedJournalState(dir string) (*SchedJournalState, error) {
	return sched.ReplayJournalState(dir)
}

// RunPipeline executes one pipeline on a private scheduler and engine,
// blocking until it settles or ctx is cancelled. The returned status
// carries every stage's outcome, including synthesize-stage payloads;
// the error is the pipeline's terminal error, nil on completion. For
// repeated submissions sharing cached results, hold a NewFlowEngine over
// a NewScheduler instead.
func RunPipeline(ctx context.Context, spec PipelineSpec) (PipelineStatus, error) {
	workers := len(spec.Stages)
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	s := sched.New(sched.Config{Workers: workers, QueueDepth: 2 * len(spec.Stages)})
	defer s.Close()
	e, err := flow.New(flow.Config{Scheduler: s})
	if err != nil {
		return PipelineStatus{}, err
	}
	defer e.Close()
	p, err := e.Submit(ctx, spec)
	if err != nil {
		return PipelineStatus{}, err
	}
	<-p.Done()
	return p.Status(), p.Err()
}
