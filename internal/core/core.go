// Package core orchestrates the paper's primary contribution: running the
// heterogeneity-aware parallel hyperspectral algorithms (package algo) on
// simulated parallel platforms (packages platform and mpi) under a chosen
// partitioning strategy, and collecting the performance figures the
// paper's evaluation reports — wall time, the COM/SEQ/PAR decomposition of
// the master's timeline, per-processor run times and load-imbalance
// ratios.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algo"
	"repro/internal/balance"
	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
)

// Algorithm names one of the paper's four analysis algorithms.
type Algorithm string

// The four algorithms of Section 2.2.
const (
	ATDCA Algorithm = "ATDCA"
	UFCLS Algorithm = "UFCLS"
	PCT   Algorithm = "PCT"
	MORPH Algorithm = "MORPH"
)

// Algorithms lists the four algorithms in the order the paper's tables
// report them.
var Algorithms = []Algorithm{ATDCA, UFCLS, PCT, MORPH}

// ParseAlgorithm maps the case-insensitive name of an algorithm, as job
// requests and command lines spell it, to the Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "atdca":
		return ATDCA, nil
	case "ufcls":
		return UFCLS, nil
	case "pct":
		return PCT, nil
	case "morph":
		return MORPH, nil
	}
	return "", fmt.Errorf("unknown algorithm %q (want atdca, ufcls, pct or morph)", s)
}

// Variant selects how rows reach processors: the heterogeneous WEA
// (speed-proportional) or the homogeneous equal-share partition, both
// fixed up front, or the adaptive schedule that learns the speeds as it
// runs.
type Variant string

// Hetero and Homo are the two variants compared throughout Tables 5-7.
// Adaptive is the paper's future-work dynamic load balancing (see
// algo.Exec.Adaptive): equal initial shares, re-partitioned between
// detection rounds from measured busy times. It runs ATDCA only.
const (
	Hetero   Variant = "Hetero"
	Homo     Variant = "Homo"
	Adaptive Variant = "Adaptive"
)

// Variants lists the paper's two variants in table order.
var Variants = []Variant{Hetero, Homo}

// Check reports whether the variant can run alg: Hetero and Homo run
// every algorithm, Adaptive only ATDCA.
func (v Variant) Check(alg Algorithm) error {
	switch v {
	case Hetero, Homo:
		return nil
	case Adaptive:
		if alg == ATDCA {
			return nil
		}
		return fmt.Errorf("core: the %s variant runs %s only, not %q", v, ATDCA, alg)
	}
	return fmt.Errorf("core: unknown variant %q", v)
}

// ParseVariant maps "hetero" or "homo" (case-insensitive; "" is Hetero,
// the default everywhere) to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "", "hetero":
		return Hetero, nil
	case "homo":
		return Homo, nil
	}
	return "", fmt.Errorf("unknown variant %q (want hetero or homo)", s)
}

// Strategy returns the partition strategy implementing the variant; the
// Adaptive variant starts from equal shares.
func (v Variant) Strategy() (partition.Strategy, error) {
	switch v {
	case Hetero:
		return partition.Heterogeneous{}, nil
	case Homo, Adaptive:
		return partition.Homogeneous{}, nil
	default:
		return nil, fmt.Errorf("core: unknown variant %q", v)
	}
}

// Params bundles the per-algorithm parameters. Zero values select the
// paper's settings (t=18 targets, c=7 classes, I_max=5).
type Params struct {
	// Targets is t for ATDCA and UFCLS.
	Targets int
	// EquivalentBands, when nonzero, sets the band count at which
	// master-side fixed sequential work of the detectors is charged (see
	// algo.DetectionParams.EquivalentBands).
	EquivalentBands int
	// PCT configures the PCT classifier.
	PCT algo.PCTParams
	// Morph configures the morphological classifier.
	Morph algo.MorphParams
	// WorkScale multiplies every flop charge in the virtual-time model
	// (0 means 1). The experiment drivers use it to simulate the paper's
	// full-size scene on a reduced one; see mpi.World.SetComputeScale.
	WorkScale float64
	// DataScale multiplies the byte size of pixel-proportional transfers
	// (0 means 1); see mpi.World.SetDataScale.
	DataScale float64
	// Trace, when true, records every virtual-time event of the run and
	// renders a per-processor activity timeline into RunReport.Timeline.
	Trace bool
	// Faults injects a deterministic failure plan into the run (nil
	// injects nothing); see package fault.
	Faults *fault.Plan
	// FaultAttempt is the 1-based execution attempt used to filter the
	// fault plan (0 means 1). The scheduler bumps it across a job's
	// attempts so a crash pinned to attempt 1 spares the rerun.
	FaultAttempt int
}

// DefaultParams returns the paper's parameter choices.
func DefaultParams() Params {
	return Params{
		Targets: 18,
		PCT:     algo.DefaultPCTParams(),
		Morph:   algo.DefaultMorphParams(),
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Targets == 0 {
		p.Targets = d.Targets
	}
	if p.PCT == (algo.PCTParams{}) {
		p.PCT = d.PCT
	}
	if p.Morph == (algo.MorphParams{}) {
		p.Morph = d.Morph
	}
	return p
}

// RunReport is the outcome of one simulated run.
type RunReport struct {
	Algorithm Algorithm
	Variant   Variant
	Network   string
	Procs     int

	// WallTime is the run's virtual duration in seconds (max over
	// processors).
	WallTime float64
	// Com, Seq, Par decompose the master's timeline (Table 6).
	Com, Seq, Par float64
	// ProcTimes are the per-processor completion times.
	ProcTimes []float64
	// BusyTimes are the per-processor busy times (completion minus idle),
	// the run times behind the Table 7 imbalance ratios.
	BusyTimes []float64
	// DAll and DMinus are the Table 7 imbalance ratios (1 when the
	// network has a single processor).
	DAll, DMinus float64

	// Detection is set for ATDCA and UFCLS runs.
	Detection *algo.DetectionResult
	// Classification is set for PCT and MORPH runs.
	Classification *algo.ClassificationResult

	// Timeline is a per-processor activity chart of the run, rendered
	// when Params.Trace was set (empty otherwise).
	Timeline string
	// TraceEvents holds the raw virtual-time events of the successful
	// attempt when Params.Trace was set (nil otherwise). Feed them to
	// mpi.WriteChromeTrace for a Perfetto-loadable export. Treat the
	// slice as immutable: cached reports are shared between jobs.
	TraceEvents []mpi.Event

	// Attempts counts the executions behind this report: 1 for one run,
	// more when the scheduler re-ran a job after a rank died.
	Attempts int
	// FailedRanks lists the processors (rank numbers of the originally
	// submitted network) that died and were excluded before a rerun, in
	// failure order.
	FailedRanks []int
	// RecoveryOverhead is the virtual time in seconds consumed by failed
	// attempts — each one charged up to the instant its rank died. It is
	// not included in WallTime, which times the successful attempt only.
	RecoveryOverhead float64

	// ResumedFromRound is the round boundary the successful attempt
	// resumed from: zero when it ran from scratch, k when a checkpoint
	// restored the master's state after round k. Nonzero only when a
	// Checkpointer was attached via WithCheckpointer.
	ResumedFromRound int
	// CheckpointSaves and CheckpointBytes count the snapshot writes (and
	// their payload bytes) of the run, or of every attempt of a job.
	CheckpointSaves int
	CheckpointBytes int64
	// CheckpointOverhead is the virtual time in seconds the successful
	// attempt's master spent on checkpoint I/O. Unlike RecoveryOverhead it
	// IS part of WallTime (and of Seq): checkpointing is work the run
	// chose to do.
	CheckpointOverhead float64

	// Balanced reports whether the run's parallel phases were scheduled
	// demand-driven (WithBalance); the fields below are its accounting.
	// All carry omitempty so unbalanced reports serialize exactly as
	// before.
	Balanced bool `json:",omitempty"`
	// BalanceChunks counts the chunk grants of the successful attempt;
	// StealEvents counts grants that reached outside the grantee's static
	// WEA share and ReassignedLines the lines those grants moved.
	BalanceChunks   int `json:",omitempty"`
	StealEvents     int `json:",omitempty"`
	ReassignedLines int `json:",omitempty"`
	// EstimatorDrift is the mean relative error of the balancer's chunk
	// time predictions over the successful attempt.
	EstimatorDrift float64 `json:",omitempty"`

	// Adaptive is the convergence trace of an Adaptive-variant run (nil
	// for every other variant, which therefore serializes as before).
	Adaptive *algo.AdaptiveTrace `json:",omitempty"`
}

// Run executes one algorithm variant on the given network against the
// scene cube and returns the full report.
func Run(net *platform.Network, alg Algorithm, variant Variant, f *cube.Cube, params Params) (*RunReport, error) {
	return RunContext(context.Background(), net, alg, variant, f, params)
}

// RunContext is Run under a cancellation context: when ctx is cancelled
// (or its deadline passes) the in-flight simulated run aborts promptly and
// the returned error wraps ctx.Err(), detectable with errors.Is. A nil ctx
// behaves like context.Background().
//
// RunContext executes exactly one attempt: a rank death fails it with the
// typed error, and re-running — on the same network or on the survivors —
// is the caller's choice (package sched makes it).
//
// Every variant runs through the same algo.Exec: the variant's strategy,
// the checkpointer on ctx, the balance policy on ctx for Hetero and Homo
// (Adaptive measures its own balance and ignores the policy), and for
// Adaptive the trace that becomes RunReport.Adaptive.
func RunContext(ctx context.Context, net *platform.Network, alg Algorithm, variant Variant, f *cube.Cube, params Params) (_ *RunReport, err error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil cube")
	}
	if err := variant.Check(alg); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fail := func(err error) error { return fmt.Errorf("core: %s/%s on %s: %w", alg, variant, net.Name, err) }
	if err := ctx.Err(); err != nil {
		return nil, fail(err)
	}
	params = params.withDefaults()
	detParams := algo.DetectionParams{Targets: params.Targets, EquivalentBands: params.EquivalentBands}
	// From here on the run is counted: every error exit is a failed run.
	tel := MetricsFrom(ctx)
	tel.runStarted(alg)
	defer func() {
		if err != nil {
			tel.runFailed()
		}
	}()

	var ex algo.Exec // how the run executes
	if ex.Strategy, err = variant.Strategy(); err != nil {
		return nil, err
	}
	if variant == Adaptive {
		ex.Adaptive = &algo.AdaptiveTrace{}
	} else if BalanceFrom(ctx).Enabled {
		spans, err := ex.Strategy.Partition(f.Lines, f.Samples, f.Bands, net.Procs)
		if err != nil {
			return nil, fail(err)
		}
		ex.Balance = balance.New(net, spans, f)
	}
	var cck *countingCheckpointer
	if ck := CheckpointerFrom(ctx); ck != nil {
		cck = &countingCheckpointer{Checkpointer: ck, tel: tel}
		ex.Checkpoint = cck
	}

	world := mpi.NewWorld(net)
	world.SetContext(ctx)
	if params.WorkScale > 0 {
		world.SetComputeScale(params.WorkScale)
	}
	if params.DataScale > 0 {
		world.SetDataScale(params.DataScale)
	}
	if err := world.SetFaults(params.Faults, max(params.FaultAttempt, 1)); err != nil {
		return nil, fail(err)
	}
	var events *mpi.Trace
	if params.Trace {
		events = world.EnableTrace()
	}

	res, err := world.Run(func(c *mpi.Comm) any {
		var data *cube.Cube
		if c.Root() {
			data = f
		}
		var r any
		var err error
		switch alg {
		case ATDCA:
			r, err = algo.ATDCAParallel(c, data, detParams, ex)
		case UFCLS:
			r, err = algo.UFCLSParallel(c, data, detParams, ex)
		case PCT:
			r, err = algo.PCTParallel(c, data, params.PCT, ex)
		case MORPH:
			r, err = algo.MorphParallel(c, data, params.Morph, ex)
		default:
			panic(fmt.Sprintf("core: unknown algorithm %q", alg))
		}
		if err != nil {
			panic(err)
		}
		return r
	})
	if err != nil {
		return nil, fail(err)
	}

	report := &RunReport{
		Algorithm: alg,
		Variant:   variant,
		Network:   net.Name,
		Procs:     net.Size(),
		WallTime:  res.WallTime(),
		ProcTimes: res.ProcTimes(),
		BusyTimes: res.BusyTimes(),
		DAll:      1,
		DMinus:    1,
		Attempts:  1,
		Adaptive:  ex.Adaptive,
	}
	report.Com, report.Seq, report.Par = res.RootBreakdown()
	if net.Size() >= 2 {
		report.DAll, report.DMinus, err = metrics.Imbalance(report.BusyTimes)
		if err != nil {
			return nil, fmt.Errorf("core: imbalance: %w", err)
		}
	}
	switch v := res.Root().(type) {
	case *algo.DetectionResult:
		report.Detection = v
	case *algo.ClassificationResult:
		report.Classification = v
	default:
		return nil, fmt.Errorf("core: unexpected result type %T", v)
	}
	if events != nil {
		report.Timeline = events.Timeline(net.Size(), 100)
		report.TraceEvents = events.Events()
	}
	if ex.Balance != nil {
		st := ex.Balance.Stats()
		report.Balanced = true
		report.BalanceChunks = st.Chunks
		report.StealEvents = st.StealEvents
		report.ReassignedLines = st.ReassignedLines
		report.EstimatorDrift = st.EstimatorDrift
	}
	if cck != nil {
		report.CheckpointSaves = cck.saves
		report.CheckpointBytes = cck.bytes
		report.CheckpointOverhead = res.Counters[0].CheckpointSeconds
		report.ResumedFromRound = cck.resumed
	}
	tel.runDone(report)
	tel.mpiRun(res.Counters)
	return report, nil
}

// RunSequential executes the single-threaded reference implementation of
// the algorithm and returns its virtual time on one processor of the
// given cycle-time — the paper's single-processor baselines (Tables 3, 4
// and 8 at CPUs=1). It reuses the parallel machinery on a one-node
// network, which degenerates to the sequential algorithm with zero
// communication.
func RunSequential(cycleTime float64, alg Algorithm, f *cube.Cube, params Params) (*RunReport, error) {
	return RunSequentialContext(context.Background(), cycleTime, alg, f, params)
}

// RunSequentialContext is RunSequential under a cancellation context; see
// RunContext for the cancellation semantics.
func RunSequentialContext(ctx context.Context, cycleTime float64, alg Algorithm, f *cube.Cube, params Params) (*RunReport, error) {
	procs := []platform.Processor{{
		ID:        1,
		Name:      "single node",
		CycleTime: cycleTime,
		MemoryMB:  1 << 20, // memory bounds are not the subject here
	}}
	net, err := platform.New("sequential", procs, [][]float64{{0}}, 0)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, net, alg, Hetero, f, params)
}
