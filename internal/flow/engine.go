package flow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Admission and lookup errors.
var (
	// ErrEngineClosed reports a submission to (or pipeline on) a closed
	// engine.
	ErrEngineClosed = errors.New("flow: engine closed")
	// ErrTooManyPipelines reports that the engine is at its concurrent
	// active-pipeline cap; the caller should back off and resubmit.
	ErrTooManyPipelines = errors.New("flow: too many active pipelines")
	// ErrUnknownPipeline reports a pipeline ID the engine does not know.
	ErrUnknownPipeline = errors.New("flow: unknown pipeline")
)

// PipelineState is a pipeline's lifecycle state.
type PipelineState string

// A pipeline starts running the moment it is admitted (stage-level
// concurrency is bounded by the scheduler's queue and worker pool, not by
// a pipeline queue) and settles in one of the three final states.
const (
	PipelineRunning   PipelineState = "running"
	PipelineCompleted PipelineState = "completed"
	PipelineFailed    PipelineState = "failed"
	PipelineCancelled PipelineState = "cancelled"
)

// Final reports whether the state is terminal.
func (s PipelineState) Final() bool { return s != PipelineRunning }

// StageState is one stage's lifecycle state.
type StageState string

const (
	StagePending   StageState = "pending"
	StageRunning   StageState = "running"
	StageCompleted StageState = "completed"
	// StageFailed marks a stage whose own execution failed (or was
	// cancelled); StageSkipped marks a stage never run because an
	// upstream dependency failed.
	StageFailed  StageState = "failed"
	StageSkipped StageState = "skipped"
)

// SceneProvider materializes a scene for a KindScene stage: the scene,
// its cube digest (the scheduler cache-key component) and whether the
// scene came from a cache. hyperhetd passes its server-side scene cache;
// the default provider generates fresh every time.
type SceneProvider func(cfg scene.Config) (*scene.Scene, string, bool, error)

// defaultScenes generates scenes directly, uncached.
func defaultScenes(cfg scene.Config) (*scene.Scene, string, bool, error) {
	sc, err := scene.Generate(cfg)
	if err != nil {
		return nil, "", false, err
	}
	return sc, sched.CubeDigest(sc.Cube), false, nil
}

// Config parameterizes an Engine. Zero values select the defaults.
type Config struct {
	// Scheduler executes the analyze stages; required. Its LRU result
	// cache is the pipeline memoization layer: two pipelines sharing a
	// (scene, algorithm, params, platform) prefix compute it once. Its
	// journal, if it has one, also makes pipelines durable: lifecycle
	// edges (submitted, per-stage completion, finished) are appended
	// through it, so a restarted engine resumes unfinished pipelines
	// without redoing completed stages.
	Scheduler *sched.Scheduler
	// Scenes materializes scene stages (default: generate uncached).
	Scenes SceneProvider
	// Registry, when non-nil, registers the engine's instruments: stage
	// latency by kind, cache hits/misses, stage outcomes, running-stage
	// and active-pipeline gauges.
	Registry *telemetry.Registry
	// MaxStages bounds one pipeline's stage count (default 32).
	MaxStages int
	// MaxActive bounds concurrently active pipelines; admission beyond it
	// fails with ErrTooManyPipelines (default 64).
	MaxActive int
	// RetainPipelines bounds how many finished pipelines stay queryable
	// by ID before the oldest are evicted (default 256).
	RetainPipelines int
	// OnStageDone, when non-nil, observes every stage of a live pipeline
	// the moment it settles — completed, failed or skipped. Stages
	// restored from the journal are not reported: they settled in a
	// previous process. The simulation harness (internal/sim) uses the
	// hook to drain the engine at a deterministic pipeline event; it runs
	// on the pipeline's goroutines and must not block — in particular it
	// must not call Drain or Close, which wait for those goroutines.
	OnStageDone func(p *Pipeline, stage string, state StageState)
}

func (cfg Config) withDefaults() Config {
	if cfg.Scenes == nil {
		cfg.Scenes = defaultScenes
	}
	if cfg.MaxStages <= 0 {
		cfg.MaxStages = 32
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 64
	}
	if cfg.RetainPipelines <= 0 {
		cfg.RetainPipelines = 256
	}
	return cfg
}

// Engine orchestrates pipelines over a scheduler. Create with New; Close
// when done.
type Engine struct {
	cfg Config
	tel *flowMetrics
	wg  sync.WaitGroup

	// draining marks a Drain in progress: pipelines that settle without
	// completing keep their open journal stories, so a restart resumes
	// them instead of abandoning them.
	draining atomic.Bool

	mu        sync.Mutex
	closed    bool
	pipelines *sched.Ledger[*Pipeline]
	active    int
	running   int // stages currently executing, across pipelines
}

// New creates an engine. The configuration must name a scheduler.
func New(cfg Config) (*Engine, error) {
	if cfg.Scheduler == nil {
		return nil, errors.New("flow: config has no scheduler")
	}
	e := &Engine{cfg: cfg.withDefaults()}
	e.pipelines = sched.NewLedger[*Pipeline]("pipe", e.cfg.RetainPipelines)
	e.tel = newFlowMetrics(e)
	return e, nil
}

// Pipeline is one submitted pipeline. All accessors are safe for
// concurrent use.
type Pipeline struct {
	id      string
	spec    PipelineSpec
	eng     *Engine
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	resumed bool
	// submittedAt is fixed before the pipeline is published: now for a
	// fresh submission, the journaled time for a resumed or restored one.
	submittedAt time.Time

	mu         sync.Mutex
	state      PipelineState
	err        error
	finishedAt time.Time
	stages     []*stage
	byName     map[string]*stage
	restored   *PipelineStatus // non-nil for journal-restored history
}

// stage is the runtime state of one StageSpec. Mutable fields are
// guarded by the owning pipeline's mutex; out has its own lock for the
// lazy scene materialization shared across consumer goroutines.
type stage struct {
	spec      StageSpec
	state     StageState
	jobID     string
	fromCache bool
	resumed   bool
	err       error
	started   time.Time
	finished  time.Time
	out       stageOutput
}

// stageOutput is what a completed stage hands its dependents.
type stageOutput struct {
	mu     sync.Mutex
	sc     *scene.Scene // nil again once the pipeline settles
	digest string
	report *core.RunReport
	synth  *Synthesis
}

// materializeScene returns the stage's scene, generating it through the
// provider on first use. A journal-restored scene stage starts with no
// materialized scene; the first dependent that needs the cube (or ground
// truth) fills it in here, so restored pipelines only regenerate scenes
// their remaining stages actually consume.
func (o *stageOutput) materializeScene(p SceneProvider, cfg scene.Config) (*scene.Scene, string, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sc != nil {
		return o.sc, o.digest, true, nil
	}
	sc, digest, cached, err := p(cfg)
	if err != nil {
		return nil, "", false, err
	}
	o.sc, o.digest = sc, digest
	return sc, digest, cached, nil
}

// ID returns the engine-assigned pipeline identifier.
func (p *Pipeline) ID() string { return p.id }

// Name returns the caller label from the pipeline's spec ("" for
// journal-restored finished pipelines, whose Status carries the name).
func (p *Pipeline) Name() string { return p.spec.Name }

// Done returns a channel closed when the pipeline settles.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Cancel aborts the pipeline: running stage jobs are cancelled through
// their contexts, pending stages are skipped.
func (p *Pipeline) Cancel() { p.cancel() }

// State returns the pipeline's current lifecycle state.
func (p *Pipeline) State() PipelineState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Err returns the pipeline's terminal error: nil while running or on
// success, the first stage failure otherwise.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// StageStatus is an immutable snapshot of one stage, shaped for JSON.
type StageStatus struct {
	Name      string     `json:"name"`
	Kind      StageKind  `json:"kind"`
	State     StageState `json:"state"`
	After     []string   `json:"after,omitempty"`
	JobID     string     `json:"job_id,omitempty"`
	FromCache bool       `json:"from_cache,omitempty"`
	Resumed   bool       `json:"resumed,omitempty"`
	Error     string     `json:"error,omitempty"`
	// VirtualSeconds is the stage's simulated run time (analyze stages).
	VirtualSeconds float64   `json:"virtual_seconds,omitempty"`
	Started        time.Time `json:"started,omitzero"`
	Finished       time.Time `json:"finished,omitzero"`
	// Synthesis carries a completed synthesize stage's output.
	Synthesis *Synthesis `json:"synthesis,omitempty"`
}

// PipelineStatus is an immutable snapshot of a pipeline, shaped for JSON.
type PipelineStatus struct {
	ID        string        `json:"id"`
	Name      string        `json:"name,omitempty"`
	State     PipelineState `json:"state"`
	Error     string        `json:"error,omitempty"`
	Resumed   bool          `json:"resumed,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Finished  time.Time     `json:"finished,omitzero"`
	// Stages snapshots every stage in spec order.
	Stages []StageStatus `json:"stages"`
	// Aggregates: total/completed stage counts, result-cache hits, stages
	// restored from the journal, and the fresh simulated seconds this
	// pipeline actually paid for (cache hits and resumed stages cost 0).
	StagesTotal     int     `json:"stages_total"`
	StagesCompleted int     `json:"stages_completed"`
	CacheHits       int     `json:"cache_hits"`
	StagesResumed   int     `json:"stages_resumed"`
	VirtualSeconds  float64 `json:"virtual_seconds"`
}

// Status snapshots the pipeline.
func (p *Pipeline) Status() PipelineStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statusLocked()
}

func (p *Pipeline) statusLocked() PipelineStatus {
	if p.restored != nil {
		return *p.restored
	}
	st := PipelineStatus{
		ID:          p.id,
		Name:        p.spec.Name,
		State:       p.state,
		Resumed:     p.resumed,
		Submitted:   p.submittedAt,
		Finished:    p.finishedAt,
		StagesTotal: len(p.stages),
	}
	if p.err != nil {
		st.Error = p.err.Error()
	}
	for _, s := range p.stages {
		// Stage outputs are guarded by their own lock: runStage fills
		// them outside p.mu so a slow materialization never blocks
		// status queries.
		s.out.mu.Lock()
		report, synth := s.out.report, s.out.synth
		s.out.mu.Unlock()
		ss := StageStatus{
			Name:      s.spec.Name,
			Kind:      s.spec.Kind,
			State:     s.state,
			After:     s.spec.After,
			JobID:     s.jobID,
			FromCache: s.fromCache,
			Resumed:   s.resumed,
			Started:   s.started,
			Finished:  s.finished,
			Synthesis: synth,
		}
		if s.err != nil {
			ss.Error = s.err.Error()
		}
		if report != nil {
			ss.VirtualSeconds = report.WallTime
		}
		if s.state == StageCompleted {
			st.StagesCompleted++
			if s.fromCache {
				st.CacheHits++
			}
			if s.resumed {
				st.StagesResumed++
			}
			if !s.fromCache && !s.resumed {
				st.VirtualSeconds += ss.VirtualSeconds
			}
		}
		st.Stages = append(st.Stages, ss)
	}
	return st
}

// Submit validates and starts a pipeline. The pipeline's context derives
// from ctx (nil means Background): cancelling it aborts every stage.
func (e *Engine) Submit(ctx context.Context, spec PipelineSpec) (*Pipeline, error) {
	return e.submit(ctx, spec, nil)
}

// stageRecord is the journal encoding of one completed stage, the state
// a resumed pipeline restores instead of re-running the stage. Reports
// are stored with trace events stripped, as in the job journal.
type stageRecord struct {
	Kind      StageKind       `json:"kind"`
	JobID     string          `json:"job_id,omitempty"`
	FromCache bool            `json:"from_cache,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Report    *core.RunReport `json:"report,omitempty"`
	Synthesis *Synthesis      `json:"synthesis,omitempty"`
}

// SubmitResumed restarts a journal-replayed unfinished pipeline under its
// original ID: stages recorded complete are restored from their journal
// records (scene stages rematerialize lazily, only if a remaining stage
// consumes them), everything else runs as usual. The caller rebuilds the
// spec from the recorded submission document.
func (e *Engine) SubmitResumed(ctx context.Context, jp *sched.JournalPipeline, spec PipelineSpec) (*Pipeline, error) {
	if jp == nil || jp.ID == "" {
		return nil, errors.New("flow: resumed pipeline without an id")
	}
	if jp.Finished {
		return nil, fmt.Errorf("flow: pipeline %s already finished; restore it instead", jp.ID)
	}
	p, err := e.submit(ctx, spec, jp)
	if err != nil {
		return nil, err
	}
	e.tel.restored.With("resumed").Inc()
	return p, nil
}

// RestoreFinished reinstalls a journal-replayed finished pipeline as
// queryable history, exactly as its final status was journaled.
func (e *Engine) RestoreFinished(jp *sched.JournalPipeline) (*Pipeline, error) {
	if jp == nil || jp.ID == "" || !jp.Finished {
		return nil, errors.New("flow: restore needs a finished journal pipeline")
	}
	var status PipelineStatus
	if err := json.Unmarshal(jp.Status, &status); err != nil {
		return nil, fmt.Errorf("flow: pipeline %s journaled unreadable status: %w", jp.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{
		id:          jp.ID,
		eng:         e,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		submittedAt: jp.Submitted,
		state:       PipelineState(jp.State),
		restored:    &status,
	}
	if jp.Error != "" {
		p.err = errors.New(jp.Error)
	}
	close(p.done)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	if _, err := e.pipelines.Reserve(p.id); err != nil {
		return nil, fmt.Errorf("flow: pipeline %w", err)
	}
	e.pipelines.Add(p.id, p.submittedAt, p)
	e.pipelines.Retire(p.id)
	e.tel.restored.With("finished").Inc()
	return p, nil
}

// submit admits a pipeline; a non-nil resume marks a journal resume (keep
// the original ID, submit time and story, restore seeded stages).
func (e *Engine) submit(ctx context.Context, spec PipelineSpec, resume *sched.JournalPipeline) (*Pipeline, error) {
	order, err := spec.Validate(e.cfg.MaxStages)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	resumed := resume != nil
	id, submitted := "", time.Now()
	var seeds map[string]json.RawMessage
	if resumed {
		id, seeds = resume.ID, resume.Stages
		if !resume.Submitted.IsZero() {
			submitted = resume.Submitted
		}
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if e.active >= e.cfg.MaxActive {
		e.mu.Unlock()
		return nil, ErrTooManyPipelines
	}
	id, err = e.pipelines.Reserve(id)
	if err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("flow: pipeline %w", err)
	}
	pctx, pcancel := context.WithCancel(ctx)
	p := &Pipeline{
		id:          id,
		spec:        spec,
		eng:         e,
		ctx:         pctx,
		cancel:      pcancel,
		done:        make(chan struct{}),
		resumed:     resumed,
		state:       PipelineRunning,
		submittedAt: submitted,
		byName:      make(map[string]*stage, len(spec.Stages)),
	}
	for i := range spec.Stages {
		st := &stage{spec: spec.Stages[i], state: StagePending}
		p.stages = append(p.stages, st)
		p.byName[st.spec.Name] = st
	}
	p.restoreSeeds(seeds)
	e.pipelines.Add(id, submitted, p)
	e.active++
	e.wg.Add(1)
	e.mu.Unlock()

	e.tel.submitted.Inc()
	if !resumed {
		e.cfg.Scheduler.JournalAppend(sched.Record{Type: sched.RecPipelineSubmitted, Pipeline: id, Request: spec.JournalPayload})
	}
	go e.run(p, order)
	return p, nil
}

// restoreSeeds marks journal-recorded completed stages as done before the
// run loop starts. A seed that does not parse, or that disagrees with the
// stage's kind, is ignored: the stage simply re-runs.
func (p *Pipeline) restoreSeeds(seeds map[string]json.RawMessage) {
	for name, raw := range seeds {
		st, ok := p.byName[name]
		if !ok {
			continue
		}
		var rec stageRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Kind != st.spec.Kind {
			continue
		}
		switch st.spec.Kind {
		case KindAnalyze:
			if rec.Report == nil {
				continue
			}
			st.out.report = rec.Report
		case KindSynthesize:
			if rec.Synthesis == nil {
				continue
			}
			st.out.synth = rec.Synthesis
		case KindScene:
			// Digest only: the cube rematerializes lazily if needed.
			st.out.digest = rec.Digest
		}
		st.state = StageCompleted
		st.resumed = true
		st.jobID = rec.JobID
		st.fromCache = rec.FromCache
	}
}

// Pipeline looks up a pipeline by ID.
func (e *Engine) Pipeline(id string) (*Pipeline, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pipelines.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPipeline, id)
	}
	return p, nil
}

// Pipelines returns every pipeline the engine knows, oldest first:
// submission time, then pipeline number, then ID. Replayed pipelines
// carry their journaled submission times, so the order survives
// restarts.
func (e *Engine) Pipelines() []*Pipeline {
	e.mu.Lock()
	entries := e.pipelines.Entries()
	e.mu.Unlock()
	return sched.Listing(entries)
}

// Close stops the engine: new submissions are rejected, active pipelines
// are cancelled (journaling their terminal records: closed is abandoned)
// and every pipeline goroutine exits before Close returns.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	var active []*Pipeline
	for _, en := range e.pipelines.Entries() {
		if !en.Item.State().Final() {
			active = append(active, en.Item)
		}
	}
	e.mu.Unlock()
	for _, p := range active {
		p.Cancel()
	}
	e.wg.Wait()
}

// Drain shuts the engine down for a graceful restart: active pipelines
// are cancelled WITHOUT terminal journal records, so their open stories
// make the next boot resume them — completed stages restored, the rest
// re-run. Call before draining the scheduler.
func (e *Engine) Drain() {
	e.draining.Store(true)
	e.Close()
}

// stageDone reports one settled stage to the configured observer.
func (e *Engine) stageDone(p *Pipeline, stage string, state StageState) {
	if e.cfg.OnStageDone != nil {
		e.cfg.OnStageDone(p, stage, state)
	}
}

// run executes one pipeline: launch every ready stage concurrently, and
// as stages settle, unblock dependents (or skip them when an upstream
// stage failed). Independent branches keep running after a failure — a
// fan-out pipeline reports every branch's outcome, not just the first
// error's.
func (e *Engine) run(p *Pipeline, order []int) {
	defer e.wg.Done()

	n := len(p.stages)
	indeg := make(map[*stage]int, n)
	dependents := make(map[*stage][]*stage, n)
	for _, st := range p.stages {
		indeg[st] += 0
		for _, dep := range st.spec.After {
			d := p.byName[dep]
			dependents[d] = append(dependents[d], st)
			indeg[st]++
		}
	}

	type doneMsg struct {
		st  *stage
		err error
	}
	results := make(chan doneMsg, n)
	settled := 0
	inFlight := 0
	settledSet := make(map[*stage]bool, n)

	// resolve folds one finished stage into the graph state: decrement
	// dependents on success, transitively skip them on failure. The set
	// guard makes resolving idempotent — the initial ready-scan may
	// revisit a resumed stage the recursive cascade already folded in.
	var resolve func(st *stage, err error)
	var maybeStart func(st *stage)
	resolve = func(st *stage, err error) {
		if settledSet[st] {
			return
		}
		settledSet[st] = true
		settled++
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("flow: stage %s: %w", st.spec.Name, err)
			}
			p.mu.Unlock()
			for _, d := range dependents[st] {
				if d.state == StagePending {
					p.mu.Lock()
					d.state = StageSkipped
					d.err = fmt.Errorf("flow: upstream stage %s failed", st.spec.Name)
					p.mu.Unlock()
					e.tel.outcomes.With("skipped").Inc()
					e.stageDone(p, d.spec.Name, StageSkipped)
					resolve(d, nil) // the skip itself is not a new failure
				}
			}
			return
		}
		for _, d := range dependents[st] {
			if indeg[d]--; indeg[d] == 0 {
				maybeStart(d)
			}
		}
	}
	maybeStart = func(st *stage) {
		if st.state == StageCompleted && st.resumed {
			// Journal-restored: settled without running.
			e.tel.outcomes.With("resumed").Inc()
			resolve(st, nil)
			return
		}
		if st.state != StagePending {
			return
		}
		p.mu.Lock()
		st.state = StageRunning
		st.started = time.Now()
		p.mu.Unlock()
		e.mu.Lock()
		e.running++
		e.mu.Unlock()
		inFlight++
		go func() {
			err := p.runStage(st)
			results <- doneMsg{st, err}
		}()
	}

	for _, i := range order {
		if st := p.stages[i]; indeg[st] == 0 {
			maybeStart(st)
		}
	}
	for settled < n {
		if inFlight == 0 {
			// Defensive: nothing running and nothing settled everything —
			// Validate guarantees this cannot happen on an admitted DAG.
			p.mu.Lock()
			if p.err == nil {
				p.err = errors.New("flow: pipeline wedged (stage graph bug)")
			}
			p.mu.Unlock()
			break
		}
		msg := <-results
		inFlight--
		e.mu.Lock()
		e.running--
		e.mu.Unlock()

		p.mu.Lock()
		msg.st.finished = time.Now()
		if msg.err != nil {
			msg.st.state = StageFailed
			msg.st.err = msg.err
		} else {
			msg.st.state = StageCompleted
		}
		elapsed := msg.st.finished.Sub(msg.st.started)
		p.mu.Unlock()

		e.tel.latency.With(string(msg.st.spec.Kind)).Observe(elapsed.Seconds())
		if msg.err != nil {
			e.tel.outcomes.With("failed").Inc()
			e.stageDone(p, msg.st.spec.Name, StageFailed)
		} else {
			e.tel.outcomes.With("completed").Inc()
			// Journal before notifying: an observer that tears the
			// process down on this event must find the stage durable.
			e.journalStage(p, msg.st)
			e.stageDone(p, msg.st.spec.Name, StageCompleted)
		}
		resolve(msg.st, msg.err)
	}

	e.settle(p)
}

// journalStage appends the completed stage's record so a resumed
// pipeline restores it instead of re-running it.
func (e *Engine) journalStage(p *Pipeline, st *stage) {
	if !e.cfg.Scheduler.Journaled() {
		return
	}
	rec := stageRecord{
		Kind:      st.spec.Kind,
		JobID:     st.jobID,
		FromCache: st.fromCache,
		Digest:    st.out.digest,
		Synthesis: st.out.synth,
	}
	if rep := st.out.report; rep != nil {
		// Strip trace events, as the job journal does: replay needs the
		// result, not the flame graph.
		r := *rep
		r.TraceEvents = nil
		rec.Report = &r
	}
	body, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	e.cfg.Scheduler.JournalAppend(sched.Record{
		Type:     sched.RecPipelineStage,
		Pipeline: p.id,
		Stage:    st.spec.Name,
		Report:   body,
	})
}

// settle is the one path by which a pipeline reaches a final state, in
// the same order as the scheduler's: counters, ledger history, then the
// terminal journal record, and only then do the terminal state and Done()
// become visible — a waiter that closes the journal, reads /metrics or
// lists Pipelines the moment the pipeline settles finds all of them
// caught up. (Pipelines have no latency histogram; their stage jobs
// report latency through the scheduler.) During a drain a
// pipeline that did not complete gets no terminal record: its story
// stays open for the next boot to resume. Before the state turns, every
// stage lets go of its scene: a retained pipeline costs its digests,
// reports and synthesis, not its cubes.
func (e *Engine) settle(p *Pipeline) {
	finishedAt := time.Now()
	p.mu.Lock()
	state := PipelineFailed
	switch {
	case p.err == nil:
		state = PipelineCompleted
	case errors.Is(p.err, context.Canceled) || errors.Is(p.err, context.DeadlineExceeded):
		state = PipelineCancelled
	}
	status := p.statusLocked()
	p.mu.Unlock()
	status.State, status.Finished = state, finishedAt

	e.tel.finished.With(string(state)).Inc()

	e.mu.Lock()
	e.active--
	e.pipelines.Retire(p.id)
	e.mu.Unlock()

	if e.cfg.Scheduler.Journaled() && !(e.draining.Load() && state != PipelineCompleted) {
		if body, err := json.Marshal(&status); err == nil {
			e.cfg.Scheduler.JournalAppend(sched.Record{
				Type:     sched.RecPipelineFinished,
				Pipeline: p.id,
				State:    string(state),
				Error:    status.Error,
				Report:   body,
			})
		}
	}

	for _, st := range p.stages {
		st.out.mu.Lock()
		st.out.sc = nil
		st.out.mu.Unlock()
	}
	p.mu.Lock()
	p.state = state
	p.finishedAt = finishedAt
	p.mu.Unlock()
	p.cancel()
	close(p.done)
}

// runStage executes one stage end to end and stores its output.
func (p *Pipeline) runStage(st *stage) error {
	e := p.eng
	if err := p.ctx.Err(); err != nil {
		return err
	}
	switch st.spec.Kind {
	case KindScene:
		_, _, cached, err := st.out.materializeScene(e.cfg.Scenes, st.spec.Scene)
		if err != nil {
			return err
		}
		p.mu.Lock()
		st.fromCache = cached
		p.mu.Unlock()
		e.tel.cache.With(boolOutcome(cached)).Inc()
		return nil

	case KindAnalyze:
		dep := p.byName[st.spec.After[0]]
		sc, digest, _, err := dep.out.materializeScene(e.cfg.Scenes, dep.spec.Scene)
		if err != nil {
			return fmt.Errorf("materializing scene %s: %w", dep.spec.Name, err)
		}
		spec := st.spec.Job
		spec.Cube = sc.Cube
		spec.CubeDigest = digest
		if st.spec.Scaled {
			spec.Params = experiments.ScaledParams(spec.Params, dep.spec.Scene)
		}
		// Stage durability is owned by the pipeline's journal records; a
		// journaled stage job would be resumed twice after a restart.
		spec.NoJournal = true
		job, err := e.submitJob(p.ctx, spec)
		if err != nil {
			return err
		}
		p.mu.Lock()
		st.jobID = job.ID()
		p.mu.Unlock()
		<-job.Done()
		if err := job.Err(); err != nil {
			return err
		}
		p.mu.Lock()
		st.fromCache = job.FromCache()
		p.mu.Unlock()
		st.out.mu.Lock()
		st.out.report = job.Report()
		st.out.mu.Unlock()
		e.tel.cache.With(boolOutcome(job.FromCache())).Inc()
		return nil

	case KindSynthesize:
		inputs := make([]synthInput, 0, len(st.spec.After))
		for _, depName := range st.spec.After {
			dep := p.byName[depName]
			sceneStage := p.byName[dep.spec.After[0]]
			sc, _, _, err := sceneStage.out.materializeScene(e.cfg.Scenes, sceneStage.spec.Scene)
			if err != nil {
				return fmt.Errorf("materializing scene %s: %w", sceneStage.spec.Name, err)
			}
			p.mu.Lock()
			fromCache := dep.fromCache
			p.mu.Unlock()
			dep.out.mu.Lock()
			rep := dep.out.report
			dep.out.mu.Unlock()
			inputs = append(inputs, synthInput{
				name:      depName,
				report:    rep,
				sc:        sc,
				fromCache: fromCache,
			})
		}
		syn, err := synthesize(inputs)
		if err != nil {
			return err
		}
		st.out.mu.Lock()
		st.out.synth = syn
		st.out.mu.Unlock()
		return nil
	}
	return fmt.Errorf("flow: unknown stage kind %q", st.spec.Kind)
}

// submitJob submits a stage job, absorbing transient queue-full rejects
// with capped exponential backoff: a wide fan-out must not fail just
// because it momentarily outruns the scheduler's admission queue.
func (e *Engine) submitJob(ctx context.Context, spec sched.JobSpec) (*sched.Job, error) {
	delay := 5 * time.Millisecond
	const maxDelay = 250 * time.Millisecond
	for {
		job, err := e.cfg.Scheduler.Submit(ctx, spec)
		if err == nil {
			return job, nil
		}
		if !errors.Is(err, sched.ErrQueueFull) {
			return nil, err
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

func boolOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
