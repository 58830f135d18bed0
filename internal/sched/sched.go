// Package sched is an admission-controlled job scheduler that multiplexes
// many simulated analysis runs (core.Run, under any variant, or
// core.RunSequential) across a pool of workers.
//
// The repository's execution layer is strictly one-run-at-a-time; this
// package supplies the serving layer above it: a bounded submission queue
// with backpressure (Submit fails with ErrQueueFull rather than growing
// without bound), two priority classes (interactive jobs always dispatch
// before batch jobs), per-job deadlines and cancellation threaded down
// through core and the mpi message loop via context.Context, an LRU
// result cache keyed on (scene digest, algorithm, variant, params,
// platform), and per-job plus aggregate counters.
//
// Lifecycle: Submit returns a *Job immediately (or an admission error);
// a job whose result the cache holds is already completed, and any other
// moves queued -> running -> one of completed / failed / cancelled.
// Job.Done() closes once a job settles. Cancelling a running job aborts its
// simulation promptly and frees the worker slot for the next job. Close
// drains the scheduler: queued jobs are cancelled, running jobs are
// aborted, workers exit.
//
// The by-ID book — ID minting, adoption of journal-replayed IDs, retained
// history, listing order — is a Ledger (ledger.go), the same one the flow
// engine keeps its pipelines in. Every job reaches its final state through
// one function, publish, whose order is fixed: counters, ledger history,
// then the terminal state and Done() become visible — so a waiter never
// observes a job that /stats or Jobs() has not caught up with. A job whose
// result the cache already holds settles at admission (settleHit) and never
// enters the queue; every other job settles through settle.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Admission and lookup errors.
var (
	// ErrQueueFull reports that the bounded submission queue is at
	// capacity; the caller should back off and resubmit.
	ErrQueueFull = errors.New("sched: submission queue full")
	// ErrClosed reports a submission to (or job on) a closed scheduler.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrUnknownJob reports a job ID the scheduler does not know
	// (never submitted, or evicted from the finished-job history).
	ErrUnknownJob = errors.New("sched: unknown job")
)

// Priority is a job's scheduling class.
type Priority int

const (
	// Batch jobs run whenever no interactive work is queued.
	Batch Priority = iota
	// Interactive jobs dispatch before any queued batch job.
	Interactive
	numPriorities
)

// String returns the lower-case class name used in JSON and logs.
func (p Priority) String() string {
	switch p {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority maps the string form back to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	}
	return 0, fmt.Errorf("sched: unknown priority %q (want interactive or batch)", s)
}

// Mode selects which execution entry point a job drives.
type Mode string

const (
	// ModeRun executes core.Run on a network under the spec's variant.
	ModeRun Mode = "run"
	// ModeSequential executes core.RunSequential on one processor.
	ModeSequential Mode = "sequential"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: Queued -> Running -> one of the three final states.
// Jobs cancelled while still queued skip Running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Final reports whether the state is terminal.
func (s State) Final() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// defaultSequentialCycleTime is the paper's baseline processor (Table 1)
// used when a sequential job does not name a cycle-time.
const defaultSequentialCycleTime = 0.0072

// JobSpec describes one analysis job.
type JobSpec struct {
	// Algorithm selects the analysis algorithm.
	Algorithm core.Algorithm
	// Variant selects how rows reach processors (ModeRun only); default
	// Hetero. core.Adaptive runs ATDCA only: Submit refuses it with any
	// other algorithm.
	Variant core.Variant
	// Mode selects the execution entry point; default ModeRun.
	Mode Mode
	// Network is the simulated platform (ModeRun only).
	Network *platform.Network
	// CycleTime is the processor speed for ModeSequential jobs, in
	// seconds per megaflop (0 selects the paper's 0.0072 baseline).
	CycleTime float64
	// Cube is the scene to analyze. The scheduler treats it as immutable
	// for the lifetime of the job and lets go of it when the job settles.
	// It may be nil when Materialize is set.
	Cube *cube.Cube
	// CubeDigest optionally carries a precomputed CubeDigest(Cube);
	// empty means the scheduler hashes the cube at submission. With a nil
	// Cube it is the only source of the result-cache key: a lazy spec
	// without a digest runs uncached.
	CubeDigest string
	// Materialize builds the cube of a spec submitted with a nil Cube. It
	// is called at most once per job, on the worker, after the result-cache
	// lookup has missed — a cache hit, and a job that settles without
	// running, never calls it. It must return the cube CubeDigest names.
	Materialize func(context.Context) (*cube.Cube, error)
	// Params are the per-algorithm parameters.
	Params core.Params
	// Priority is the scheduling class; default Batch.
	Priority Priority
	// Timeout is the per-job deadline measured from submission; 0 means
	// the scheduler's Config.DefaultTimeout (which may itself be none).
	Timeout time.Duration
	// Label is an optional caller tag echoed in JobStatus.
	Label string
	// NoCache bypasses the result cache for this job.
	NoCache bool
	// Checkpoint enables round-boundary checkpointing: every execution
	// attempt saves the master's round state to a per-job store, so
	// scheduler retries (and, with a journal, re-runs after a process
	// restart) resume from the last completed round instead of round
	// zero. Checkpointed jobs bypass the result cache — their reports
	// carry checkpoint overhead and resume state that depend on the
	// store's history, not on the spec alone.
	Checkpoint bool
	// Balance schedules the job's parallel phases demand-driven: the
	// master grants line-range chunks on request and re-sizes them from
	// an online per-rank throughput estimate (see internal/balance). The
	// detected/classified outputs are identical to the static schedule;
	// only the virtual timings and the report's balance accounting
	// change, so balanced and unbalanced results use distinct cache keys.
	// An Adaptive job ignores it (validate clears it).
	Balance bool
	// NoJournal suppresses this job's journal records even when the
	// scheduler has one. Pipeline stage jobs set it: their durability is
	// owned by the flow engine's pipeline records, and journaling the
	// stage jobs too would make a restarted server resume the same work
	// twice (once as an orphan job, once as a pipeline stage).
	NoJournal bool
	// JournalPayload optionally carries the job's raw submission document
	// (for hyperhetd, the verbatim POST /submit body) into the journal's
	// submitted record, letting a restarted server rebuild the spec and
	// resubmit the job. Ignored when the scheduler has no journal.
	JournalPayload []byte
	// MaxAttempts bounds the job's execution attempts, first run included
	// (0 means 1, or 3 with Recovery). A failed attempt is re-run only
	// when its error is retryable: a rank death (injected fault, see
	// Params.Faults) or the cascade it triggered. Cancellation, deadline
	// expiry and malformed runs are permanent.
	MaxAttempts int
	// Recovery moves the rerun after a worker rank's death onto the
	// survivors, which the strategy re-partitions. Rank 0 holds the scene:
	// its death is retried on the same network like any other failure.
	Recovery bool
}

// validate normalizes defaults and rejects malformed specs.
func (spec *JobSpec) validate() error {
	if spec.Cube == nil && spec.Materialize == nil {
		return errors.New("sched: job spec has no cube")
	}
	if spec.Mode == "" {
		spec.Mode = ModeRun
	}
	if spec.Variant == "" {
		spec.Variant = core.Hetero
	}
	if spec.Priority < 0 || spec.Priority >= numPriorities {
		return fmt.Errorf("sched: invalid priority %d", spec.Priority)
	}
	if spec.Timeout < 0 {
		return fmt.Errorf("sched: negative timeout %v", spec.Timeout)
	}
	if spec.MaxAttempts < 0 {
		return fmt.Errorf("sched: negative max attempts %d", spec.MaxAttempts)
	}
	switch spec.Mode {
	case ModeRun:
		if spec.Network == nil {
			return fmt.Errorf("sched: %s job has no network", spec.Mode)
		}
		if err := spec.Variant.Check(spec.Algorithm); err != nil {
			return err
		}
		if spec.Variant == core.Adaptive {
			// core.RunContext ignores the balance policy for Adaptive,
			// which measures its own: the flag changes no report, so it
			// must not split the cache key either.
			spec.Balance = false
		}
	case ModeSequential:
		if spec.CycleTime == 0 {
			spec.CycleTime = defaultSequentialCycleTime
		}
		if spec.CycleTime < 0 {
			return fmt.Errorf("sched: invalid cycle-time %v", spec.CycleTime)
		}
	default:
		return fmt.Errorf("sched: unknown mode %q", spec.Mode)
	}
	switch spec.Algorithm {
	case core.ATDCA, core.UFCLS, core.PCT, core.MORPH:
	default:
		return fmt.Errorf("sched: unknown algorithm %q", spec.Algorithm)
	}
	ranks := 1
	if spec.Network != nil {
		ranks = spec.Network.Size()
	}
	if err := spec.Params.Faults.Validate(ranks); err != nil {
		return err
	}
	return nil
}

// Job is one submitted analysis job. All accessors are safe for
// concurrent use.
type Job struct {
	id       string
	spec     JobSpec
	cacheKey string
	ctx      context.Context
	cancel   context.CancelFunc
	// stopWatch unregisters the queued-death watch (see enqueue; nil for a
	// hit at admission, which is never queued); publish calls it so a
	// settled job's context leaves nothing behind.
	stopWatch func() bool
	done      chan struct{}
	// submittedAt is fixed before the job is published: now for a fresh
	// submission, the journaled time for a resumed or restored one.
	submittedAt time.Time

	// seed is the journal-recovered snapshot a resumed job starts from.
	seed *checkpoint.Snapshot

	// deadline is the job's wall-clock deadline, set once at admission
	// (zero when the job has none).
	deadline time.Time

	mu         sync.Mutex
	state      State
	startedAt  time.Time
	finishedAt time.Time
	report     *core.RunReport
	err        error
	fromCache  bool
	attempts   []AttemptRecord
	// replayed is the attempt count of a job restored from the journal,
	// which keeps no attempt history.
	replayed int
}

// AttemptRecord is one execution attempt of a job, JSON-shaped for the
// hyperhetd job document.
type AttemptRecord struct {
	// Attempt is the 1-based attempt number.
	Attempt int `json:"attempt"`
	// Started and Finished bound the attempt in wall time.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Error is the attempt's failure (empty on success).
	Error string `json:"error,omitempty"`
	// Retryable reports whether the failure class permitted a retry.
	Retryable bool `json:"retryable,omitempty"`
	// VirtualSeconds is the simulated wall time of a successful attempt.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
}

// ID returns the scheduler-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's specification. Once the job has settled, Cube
// and Materialize are nil: a retained job keeps its report, not its scene.
func (j *Job) Spec() JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// Done returns a channel closed when the job reaches a final state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: dequeues it if still queued, or aborts its
// in-flight simulation if running. Safe to call at any time.
func (j *Job) Cancel() { j.cancel() }

// Context returns the job's context: done once the job is cancelled, its
// deadline passes or the scheduler closes.
func (j *Job) Context() context.Context { return j.ctx }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the run report of a completed job (nil otherwise).
// Reports may be shared with other jobs through the result cache and
// must be treated as immutable.
func (j *Job) Report() *core.RunReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Err returns the job's terminal error: nil while in flight or on
// success, the failure cause otherwise. Cancelled and deadline-expired
// jobs report errors satisfying errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// FromCache reports whether the job was satisfied by the result cache.
func (j *Job) FromCache() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fromCache
}

// recordAttempt appends one attempt to the job's history.
func (j *Job) recordAttempt(rec AttemptRecord) {
	j.mu.Lock()
	j.attempts = append(j.attempts, rec)
	j.mu.Unlock()
}

// JobStatus is an immutable snapshot of a job, shaped for JSON.
type JobStatus struct {
	ID        string    `json:"id"`
	State     State     `json:"state"`
	Priority  string    `json:"priority"`
	Mode      Mode      `json:"mode"`
	Algorithm string    `json:"algorithm,omitempty"`
	Variant   string    `json:"variant,omitempty"`
	Label     string    `json:"label,omitempty"`
	FromCache bool      `json:"from_cache"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// VirtualSeconds is the completed run's simulated wall time.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
	// Attempts counts the execution attempts consumed.
	Attempts int `json:"attempts,omitempty"`
	// AttemptHistory details each attempt (omitted for cache hits).
	AttemptHistory []AttemptRecord `json:"attempt_history,omitempty"`
	// QueueMS is the time the job spent queued before dispatch — for a
	// still-queued job, its wait so far. It makes expiry decisions
	// auditable from the job document alone.
	QueueMS int64 `json:"queue_ms"`
	// DeadlineRemainingMS is the budget left on the job's deadline at
	// snapshot time (negative once passed; frozen at settlement for
	// finished jobs). Omitted for jobs without a deadline.
	DeadlineRemainingMS *int64 `json:"deadline_remaining_ms,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Priority:  j.spec.Priority.String(),
		Mode:      j.spec.Mode,
		Algorithm: string(j.spec.Algorithm),
		Variant:   string(j.spec.Variant),
		Label:     j.spec.Label,
		FromCache: j.fromCache,
		Submitted: j.submittedAt,
		Started:   j.startedAt,
		Finished:  j.finishedAt,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.report != nil {
		st.VirtualSeconds = j.report.WallTime
	}
	st.Attempts = max(len(j.attempts), j.replayed)
	st.AttemptHistory = append([]AttemptRecord(nil), j.attempts...)
	now := time.Now()
	switch {
	case !j.startedAt.IsZero():
		st.QueueMS = j.startedAt.Sub(j.submittedAt).Milliseconds()
	case !j.finishedAt.IsZero():
		// Settled without running (cancelled or expired in queue).
		st.QueueMS = j.finishedAt.Sub(j.submittedAt).Milliseconds()
	default:
		st.QueueMS = now.Sub(j.submittedAt).Milliseconds()
	}
	if !j.deadline.IsZero() {
		ref := now
		if !j.finishedAt.IsZero() {
			ref = j.finishedAt
		}
		rem := j.deadline.Sub(ref).Milliseconds()
		st.DeadlineRemainingMS = &rem
	}
	return st
}

// Config parameterizes a Scheduler. Zero values select the defaults.
type Config struct {
	// Workers is the size of the execution pool: how many simulated
	// networks run concurrently (default 2).
	Workers int
	// KernelWorkers caps the host goroutines the data-parallel kernels
	// (package par) may use, shared across all concurrently running jobs;
	// the budget is applied once at scheduler construction. Zero keeps
	// the package default (runtime.GOMAXPROCS at each kernel call). The
	// budget bounds CPU use only — par kernels are bit-deterministic in
	// the worker count, so it never changes job results.
	KernelWorkers int
	// QueueDepth bounds the submission queue across both priority
	// classes; a full queue rejects a fresh Submit with ErrQueueFull
	// (default 64). SubmitResumed ignores it: that job was admitted before
	// the restart.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 128; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout applies to jobs that do not set JobSpec.Timeout
	// (default none).
	DefaultTimeout time.Duration
	// RetainJobs bounds how many finished jobs stay queryable by ID
	// before the oldest are evicted (default 1024).
	RetainJobs int
	// Registry, when non-nil, registers the scheduler's instruments (and
	// the simulation-level ones of package core) against it: queue depth,
	// admission rejects, retries, cache hit/miss, per-class job latency
	// histograms. Instrument names register once, so share a registry
	// with at most one scheduler.
	Registry *telemetry.Registry
	// Journal, when non-nil, makes the scheduler durable: every job
	// lifecycle edge (submitted, started, checkpointed, finished) is
	// journaled — Submit returns once its submitted record is durable, and
	// no attempt's outcome is used before its started record is — and a
	// restarted process rebuilds its state from ReplayJournalState via RestoreFinished
	// and SubmitResumed (flow.Engine.Recover drives both). The scheduler
	// never closes the journal; its owner does, after Close or Drain
	// returns.
	Journal *Journal
	// OnJobRunning, when non-nil, is called from the worker goroutine
	// after a job transitions to StateRunning and before its simulation
	// starts. The simulation harness (internal/sim) uses it to drain the
	// scheduler at a deterministic point in a job's life, and tests park a
	// job on it until its Context is done; a drain initiated inside it
	// would deadlock the worker.
	OnJobRunning func(*Job)
	// OnJobCheckpoint, when non-nil, observes every round snapshot a
	// checkpointed job saves, after the store (and, with a journal, the
	// journal append) accepted it. Runs on the saving rank's goroutine,
	// which the job's worker waits on; the same no-blocking rule as
	// OnJobRunning applies.
	OnJobCheckpoint func(j *Job, round int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 128
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	return cfg
}

// Stats is a snapshot of the scheduler's aggregate counters.
type Stats struct {
	// Gauges.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Monotonic counters.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// Retries counts attempts beyond each job's first.
	Retries   uint64 `json:"retries"`
	CacheHits uint64 `json:"cache_hits"`
	CacheMiss uint64 `json:"cache_misses"`
	// Expired counts queued jobs settled because their deadline passed
	// before dispatch — dead work never handed to a worker.
	Expired uint64 `json:"expired"`
	// VirtualSeconds accumulates the simulated wall time of every
	// completed (non-cached) run.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// CacheEntries is the current LRU population.
	CacheEntries int `json:"cache_entries"`
}

// Scheduler multiplexes analysis jobs over a worker pool. Create with
// New; Close when done.
type Scheduler struct {
	cfg   Config
	cache *resultCache
	tel   *schedMetrics // the only counters; Stats reads them back
	wg    sync.WaitGroup

	// draining marks a Drain in progress: jobs cancelled from here on
	// keep their unfinished journal story, so a restart resumes them.
	draining atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	queues  [numPriorities][]*Job // FIFO per class
	jobs    *Ledger[*Job]
	running int
}

// New creates a scheduler and starts its worker pool.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults()}
	s.jobs = NewLedger[*Job]("job", s.cfg.RetainJobs)
	s.cache = newResultCache(s.cfg.CacheEntries)
	if s.cfg.KernelWorkers > 0 {
		par.SetMaxWorkers(s.cfg.KernelWorkers)
	}
	s.tel = newSchedMetrics(s)
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job. It returns ErrQueueFull when the
// bounded queue is at capacity and ErrClosed after Close. The job's
// context is derived from ctx (nil means Background): cancelling ctx, the
// job's deadline expiring, or Job.Cancel all abort the job.
func (s *Scheduler) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	// Hash the cube outside the lock: admission stays cheap under
	// contention even for large scenes.
	return s.admit(ctx, spec, spec.cacheKey(), nil)
}

// admit registers a validated spec. A fresh submission (resume == nil)
// mints the next job ID; a journal-replayed resubmission keeps its original
// ID, submit time and journal story and starts from its recovered snapshot.
// A job whose result the cache already holds settles here and never enters
// the queue; any other job is queued, a fresh one with its submitted record
// durable before admit returns. Either way the caller's acknowledgment is
// durable.
func (s *Scheduler) admit(ctx context.Context, spec JobSpec, key string, resume *JournalJob) (*Job, error) {
	j, hit, submitted, err := s.enqueue(ctx, spec, key, resume)
	if err != nil {
		return nil, err
	}
	if hit != nil {
		s.settleHit(j, hit, resume == nil)
		return j, nil
	}
	s.journalWait(submitted)
	return j, nil
}

// submittedRecord is the record that opens j's journal story.
func submittedRecord(j *Job) Record {
	return Record{Type: recSubmitted, Job: j.id, Request: j.spec.JournalPayload, CacheKey: j.cacheKey}
}

// enqueue is admit up to the point where a worker can pop the job; the
// caller owes it a wait for the returned submitted record. When the result
// cache already holds the job's key, the job is registered but not queued,
// and enqueue returns the cached report with it: the caller owes it
// settleHit instead. The two refusals come first, so a full queue or a
// closed scheduler refuses a hit like any other job.
func (s *Scheduler) enqueue(ctx context.Context, spec JobSpec, key string, resume *JournalJob) (*Job, *core.RunReport, journalWrite, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id, submitted := "", time.Now()
	var seed *checkpoint.Snapshot
	if resume != nil {
		id, seed = resume.ID, resume.Snapshot
		if !resume.Submitted.IsZero() {
			submitted = resume.Submitted
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.tel.rejected.Inc()
		return nil, nil, journalWrite{}, ErrClosed
	}
	if resume == nil && s.queuedLocked() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.tel.rejected.Inc()
		return nil, nil, journalWrite{}, ErrQueueFull
	}
	hit, _ := s.cache.get(key)
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	id, err := s.jobs.Reserve(id)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, journalWrite{}, fmt.Errorf("sched: job %w", err)
	}
	jctx, jcancel := context.WithCancel(ctx)
	if timeout > 0 {
		jctx, jcancel = context.WithTimeout(ctx, timeout)
	}
	j := &Job{
		id:          id,
		spec:        spec,
		cacheKey:    key,
		ctx:         jctx,
		cancel:      jcancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		submittedAt: submitted,
		seed:        seed,
	}
	if dl, ok := jctx.Deadline(); ok {
		j.deadline = dl
	}
	s.jobs.Add(j.id, submitted, j)
	var sub journalWrite
	if hit == nil {
		if resume == nil && !spec.NoJournal {
			// The submitted record takes its place in the file before a
			// worker can pop the job, so it leads the job's story: every
			// other record of the job is enqueued after this lock is let go.
			// Enqueueing only frames the record; the fsync is the writer's.
			sub = s.journalEnqueue(submittedRecord(j))
		}
		// The job settles the moment its context dies while it is still
		// queued, so expired jobs free queue capacity immediately instead
		// of occupying a slot until a worker pops them. The watch is
		// registered before the job is published, so publish always finds
		// it set; it costs no goroutine until the context dies. A hit is
		// never queued, so it needs none: nothing expires or cancels it.
		j.stopWatch = context.AfterFunc(jctx, func() { s.expireQueued(j) })
		s.queues[spec.Priority] = append(s.queues[spec.Priority], j)
		s.cond.Signal()
	}
	s.mu.Unlock()
	s.tel.submitted.Inc()
	return j, hit, sub, nil
}

// SubmitResumed resubmits a journal-replayed unfinished job under its
// original ID. The caller rebuilds the spec (for hyperhetd, by re-parsing
// the recorded submission document); the job's checkpoint store is seeded
// from the journal's latest snapshot, so execution resumes at the round
// the previous process had checkpointed. The queue bound does not apply:
// the job was acknowledged before the restart, so refusing it now would
// drop accepted work.
func (s *Scheduler) SubmitResumed(ctx context.Context, jj *JournalJob, spec JobSpec) (*Job, error) {
	if jj == nil || jj.ID == "" {
		return nil, errors.New("sched: resumed job without an id")
	}
	if jj.Finished {
		return nil, fmt.Errorf("sched: job %s already finished; restore it instead", jj.ID)
	}
	if spec.Cube == nil && spec.CubeDigest == "" {
		// A lazy spec need not build its scene just to re-derive the
		// digest the journal already holds.
		spec.CubeDigest = keyDigest(jj.CacheKey)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	j, err := s.admit(ctx, spec, spec.cacheKey(), jj)
	if err != nil {
		return nil, err
	}
	s.tel.restored.With("resumed").Inc()
	return j, nil
}

// RestoreFinished reinstalls a journal-replayed finished job as queryable
// history: its ID, terminal state, error, report, attempt count and start
// time come back exactly as journaled (the attempt history is not), and a
// completed cacheable result re-seeds the result cache.
// The spec (rebuilt by the caller, scene not required) only feeds the
// status document.
func (s *Scheduler) RestoreFinished(jj *JournalJob, spec JobSpec) (*Job, error) {
	if jj == nil || jj.ID == "" || !jj.Finished {
		return nil, errors.New("sched: restore needs a finished journal job")
	}
	if !jj.State.Final() {
		return nil, fmt.Errorf("sched: job %s journaled non-final state %q", jj.ID, jj.State)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		id:          jj.ID,
		spec:        spec,
		cacheKey:    jj.CacheKey,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       jj.State,
		submittedAt: jj.Submitted,
		startedAt:   jj.Started,
		finishedAt:  jj.FinishedAt,
		report:      jj.Report,
		replayed:    jj.Attempts,
	}
	if jj.Error != "" {
		j.err = errors.New(jj.Error)
	}
	close(j.done)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, err := s.jobs.Reserve(j.id); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: job %w", err)
	}
	s.jobs.Add(j.id, j.submittedAt, j)
	s.jobs.Retire(j.id, j.finishedAt)
	s.mu.Unlock()

	if jj.State == StateCompleted && jj.Report != nil && jj.CacheKey != "" {
		s.cache.put(jj.CacheKey, jj.Report)
	}
	s.tel.restored.With("finished").Inc()
	return j, nil
}

// queuedLocked returns the queue population across classes.
func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// expireQueued cancels a job out of the queue when its context dies
// first. Deadline expiry while queued is counted separately from plain
// cancellation: the lazy-expiry path is how dead work leaves the queue
// without ever touching a worker.
func (s *Scheduler) expireQueued(j *Job) {
	if s.dequeue(j) {
		s.settle(j, StateCancelled, nil, s.queuedDeathErr(j), false)
	}
}

// queuedDeathErr builds the terminal error of a job whose context died
// while it was still queued, counting deadline expiries as such.
func (s *Scheduler) queuedDeathErr(j *Job) error {
	cause := context.Cause(j.ctx)
	if errors.Is(cause, context.DeadlineExceeded) {
		s.tel.expired.Inc()
		return fmt.Errorf("sched: job %s expired while queued (deadline passed before dispatch): %w", j.id, cause)
	}
	return fmt.Errorf("sched: job %s cancelled while queued: %w", j.id, cause)
}

// dequeue removes a still-queued job, reporting whether it was present.
// Queue membership is the token that makes settle exactly-once between
// expireQueued and the workers.
func (s *Scheduler) dequeue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[j.spec.Priority]
	for i, cand := range q {
		if cand == j {
			s.queues[j.spec.Priority] = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// Jobs returns every job the scheduler knows — queued, running and
// retained finished — in deterministic listing order: ascending submit
// time, ties broken by ID (numeric for native "job-N" IDs, so job-10
// lists after job-9).
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	entries := s.jobs.Entries()
	s.mu.Unlock()
	return Listing(entries)
}

// Job looks up a job by ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Cancel aborts the identified job.
func (s *Scheduler) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.Cancel()
	return nil
}

// Stats snapshots the aggregate counters: the gauges under the
// scheduler's lock, the monotonic counts read back from the instruments.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	queued, running := s.queuedLocked(), s.running
	s.mu.Unlock()
	m := s.tel
	return Stats{
		Queued:         queued,
		Running:        running,
		Submitted:      count(m.submitted),
		Rejected:       count(m.rejected),
		Completed:      count(m.finished.With(string(StateCompleted))),
		Failed:         count(m.finished.With(string(StateFailed))),
		Cancelled:      count(m.finished.With(string(StateCancelled))),
		Retries:        count(m.retries),
		CacheHits:      count(m.cache.With("hit")),
		CacheMiss:      count(m.cache.With("miss")),
		Expired:        count(m.expired),
		VirtualSeconds: m.virtualSeconds.Value(),
		CacheEntries:   s.cache.len(),
	}
}

// Close stops the scheduler: queued jobs are cancelled, running jobs are
// aborted via their contexts, and all workers exit before Close returns.
// Subsequent Submits fail with ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var pending []*Job
	for p := range s.queues {
		pending = append(pending, s.queues[p]...)
		s.queues[p] = nil
	}
	var inFlight []*Job
	for _, en := range s.jobs.Entries() {
		if !en.Item.State().Final() {
			inFlight = append(inFlight, en.Item)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range pending {
		s.settle(j, StateCancelled, nil, fmt.Errorf("sched: job %s: %w", j.id, ErrClosed), false)
	}
	for _, j := range inFlight {
		j.Cancel()
	}
	s.wg.Wait()
}

// Drain shuts the scheduler down for a graceful restart: new submissions
// are rejected with ErrClosed, queued and running jobs are cancelled
// WITHOUT finished journal records — their journal stories stay open, so
// the next process replays and resumes them from their last checkpointed
// round — and every worker exits before Drain returns. Close, by
// contrast, journals the cancellations: closed is abandoned, drained is
// deferred.
func (s *Scheduler) Drain() {
	s.draining.Store(true)
	s.Close()
}

// Journaled reports whether the scheduler has a journal, so callers can
// skip encoding records JournalAppend would drop.
func (s *Scheduler) Journaled() bool { return s.cfg.Journal != nil }

// JournalAppend appends records to the journal, if any, and waits until
// they are durable — the scheduler's own job records and the flow engine's
// pipeline records alike. The records are contiguous in the file and
// share one batch's write and fsync. An append failure must not fail the
// work — its result is still correct, only its durability is degraded — so
// errors are counted, not propagated.
func (s *Scheduler) JournalAppend(recs ...Record) {
	s.journalWait(s.journalEnqueue(recs...))
}

// journalWrite is records handed to the journal and not yet known to be
// durable: the batch they joined, or why they joined none.
type journalWrite struct {
	recs []Record
	b    *batch
	err  error
}

// journalEnqueue hands recs to the journal, if any, without waiting: they
// take their place in the file now and become durable with their batch.
func (s *Scheduler) journalEnqueue(recs ...Record) journalWrite {
	if s.cfg.Journal == nil {
		return journalWrite{}
	}
	b, err := s.cfg.Journal.enqueue(recs...)
	return journalWrite{recs: recs, b: b, err: err}
}

// journalWait waits until w's records are durable and counts them: by type
// once durable, every one as an error if their batch failed.
func (s *Scheduler) journalWait(w journalWrite) {
	err := w.err
	if err == nil {
		err = w.b.wait()
	}
	if err != nil {
		s.tel.journalEr.Add(float64(len(w.recs)))
		return
	}
	for _, rec := range w.recs {
		s.tel.journal.With(rec.Type).Inc()
	}
}

// worker runs jobs until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next pops the highest-priority queued job, blocking while the queue is
// empty; nil means the scheduler closed.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for p := numPriorities - 1; p >= 0; p-- {
			if q := s.queues[p]; len(q) > 0 {
				j := q[0]
				s.queues[p] = q[1:]
				return j
			}
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one dequeued job end to end.
func (s *Scheduler) runJob(j *Job) {
	// Cancelled (or deadline-expired) between submission and dispatch:
	// settle without consuming the worker slot. expireQueued
	// usually wins this race; this is the fallback, and it upholds the
	// same invariant — an expired job is never dispatched.
	if j.ctx.Err() != nil {
		s.settle(j, StateCancelled, nil, s.queuedDeathErr(j), false)
		return
	}

	// A twin that finished while this job was queued left its result:
	// admission missed it, dispatch does not.
	if res, ok := s.cache.get(j.cacheKey); ok {
		s.tel.cache.With("hit").Inc()
		s.settle(j, StateCompleted, res, nil, true)
		return
	}
	if j.cacheKey != "" {
		s.tel.cache.With("miss").Inc()
	}

	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	if hook := s.cfg.OnJobRunning; hook != nil {
		hook(j)
	}

	// Only now — the result cache missed and a worker is committed — is
	// a lazy cube built, once, for all attempts to share.
	var res *core.RunReport
	var err error
	c := j.spec.Cube
	if c == nil {
		c, err = j.spec.Materialize(j.ctx)
	}
	if err != nil {
		err = fmt.Errorf("sched: job %s: materializing cube: %w", j.id, err)
	} else {
		res, err = s.runAttempts(j, c)
	}

	s.mu.Lock()
	s.running--
	s.mu.Unlock()

	switch {
	case err == nil:
		s.cache.put(j.cacheKey, res)
		s.settle(j, StateCompleted, res, nil, false)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.settle(j, StateCancelled, nil, err, false)
	default:
		s.settle(j, StateFailed, nil, err, false)
	}
}

// settle is how a job that reached a queue settles, called exactly once
// per job (callers hold the token: queue membership or worker ownership).
// publish makes the outcome visible; only the finished journal record
// comes after.
func (s *Scheduler) settle(j *Job, state State, res *core.RunReport, err error, fromCache bool) {
	s.publish(j, state, res, err, fromCache)
	// The one deliberate exception to "done means durable", which covers
	// only jobs that a queue held: their finished record is appended AFTER
	// the ack above (DESIGN.md "Durability & drain" has the poll-ladder
	// reasoning). A hit at admission is durable first (settleHit).
	if rec, ok := s.finishedRecord(j, state, res, err); ok {
		s.JournalAppend(rec)
	}
}

// settleHit settles a job the result cache answered at admission. Its
// whole journal story — submitted, then finished, no started between; a
// resumed job's submitted record is in the journal already — goes out in
// one append, in one batch, before publish, so a hit is durable before
// Done() and before its submitter's ack.
func (s *Scheduler) settleHit(j *Job, res *core.RunReport, fresh bool) {
	s.tel.cache.With("hit").Inc()
	if rec, ok := s.finishedRecord(j, StateCompleted, res, nil); ok {
		if fresh {
			s.JournalAppend(submittedRecord(j), rec)
		} else {
			s.JournalAppend(rec)
		}
	}
	s.publish(j, StateCompleted, res, nil, true)
}

// finishedRecord builds the record that closes j's journal story, or
// reports that none is owed. A job cancelled by a drain is deferred, not
// settled: no finished record, so the journal's open story makes the next
// boot resume it. Without a journal there is no record to build:
// JournalAppend would drop it, and encoding the report is most of a cache
// hit's cost.
func (s *Scheduler) finishedRecord(j *Job, state State, res *core.RunReport, err error) (Record, bool) {
	if !s.Journaled() || j.spec.NoJournal || (state == StateCancelled && s.draining.Load()) {
		return Record{}, false
	}
	rec := Record{Type: recFinished, Job: j.id, State: string(state)}
	if err != nil {
		rec.Error = err.Error()
	}
	if state == StateCompleted {
		rec.Report = marshalReport(res)
	}
	return rec, true
}

// publish is the one path by which a job reaches a final state. The order
// is the contract: counters (the latency histogram included) and ledger
// history both land BEFORE the terminal state and Done() become visible,
// so a waiter that resubmits, reads Stats or /metrics, or lists Jobs the
// moment the job settles finds all of them already caught up.
func (s *Scheduler) publish(j *Job, state State, res *core.RunReport, err error, fromCache bool) {
	finishedAt := time.Now()
	latency := finishedAt.Sub(j.submittedAt)

	s.tel.finished.With(string(state)).Inc()
	if state == StateCompleted && res != nil && !fromCache {
		s.tel.virtualSeconds.Add(res.WallTime)
	}
	s.tel.latency.With(j.spec.Priority.String()).Observe(latency.Seconds())

	s.mu.Lock()
	s.jobs.Retire(j.id, finishedAt)
	s.mu.Unlock()

	j.mu.Lock()
	j.state = state
	j.report = res
	j.err = err
	j.fromCache = fromCache
	j.finishedAt = finishedAt
	// A settled job costs its report, not its scene: nothing reads the
	// cube (or the closure that would build it) past this point.
	j.spec.Cube, j.spec.Materialize = nil, nil
	j.mu.Unlock()
	if j.stopWatch != nil {
		j.stopWatch()
	}
	j.cancel() // release the context's timer resources
	close(j.done)
}
