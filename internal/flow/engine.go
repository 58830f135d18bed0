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
	// cancelled); StageSkipped marks a stage never run because a stage
	// it consumes did not complete.
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
	// MaxActive bounds concurrently active pipelines; a fresh Submit
	// beyond it fails with ErrTooManyPipelines (default 64). Resumed
	// pipelines ignore it: they were admitted before the restart.
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

	running atomic.Int64 // stages currently executing, across pipelines

	mu        sync.Mutex
	closed    bool
	pipelines *sched.Ledger[*Pipeline]
	active    int
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
	restored   *PipelineStatus // non-nil for journal-restored history

	// The star, fixed at admission: the scene stage, the analyze stages
	// in spec order and the synthesize stage (empty if the spec has none).
	scene    *stage
	analyses []*stage
	synth    []*stage

	// sceneMu guards the materialized scene, which a settled pipeline
	// lets go of (sc nil again), and serializes its materialization.
	sceneMu sync.Mutex
	sc      *scene.Scene
	digest  string
}

// stage is the runtime state of one StageSpec, guarded by the owning
// pipeline's mutex.
type stage struct {
	spec      StageSpec
	state     StageState
	jobID     string
	fromCache bool
	resumed   bool
	err       error
	started   time.Time
	finished  time.Time
	report    *core.RunReport // an analyze stage's output
	synthesis *Synthesis      // the synthesize stage's output
}

// materializeScene returns the pipeline's scene, its digest and whether
// the provider served it from a cache, calling the provider on first use
// only. A journal-restored scene stage starts with no cube; the first
// stage still to run that needs it materializes it here, so a restored
// pipeline regenerates its scene only if a remaining stage consumes it.
func (p *Pipeline) materializeScene() (*scene.Scene, string, bool, error) {
	p.sceneMu.Lock()
	defer p.sceneMu.Unlock()
	if p.sc != nil {
		return p.sc, p.digest, true, nil
	}
	sc, digest, cached, err := p.eng.cfg.Scenes(p.scene.spec.Scene)
	if err != nil {
		return nil, "", false, fmt.Errorf("materializing scene %s: %w", p.scene.spec.Name, err)
	}
	p.sc, p.digest = sc, digest
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
			Synthesis: s.synthesis,
		}
		if s.err != nil {
			ss.Error = s.err.Error()
		}
		if s.report != nil {
			ss.VirtualSeconds = s.report.WallTime
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
	Report    *core.RunReport `json:"report,omitempty"`
	Synthesis *Synthesis      `json:"synthesis,omitempty"`
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

// Recovered is what Recover brought back from a journal replay.
type Recovered struct {
	// Jobs and Pipelines are the unfinished stories resumed under their
	// original IDs, in journal order.
	Jobs      []*sched.Job
	Pipelines []*Pipeline
	// Lost lists every story that could not be brought back.
	Lost []LostStory
}

// LostStory is a journaled job or pipeline Recover could not bring back:
// its request no longer rebuilds, or the scheduler or engine refused it.
type LostStory struct {
	ID  string
	Err error
}

// Recover reinstalls a journal replay into a fresh engine and its
// scheduler, the one boot path of every durable process: finished jobs
// and pipelines come back as history (a completed job's result re-seeds
// the cache), unfinished ones are resumed under their original IDs —
// jobs from their last checkpointed round, pipelines with their completed
// stages restored. The caller rebuilds specs from journaled requests:
// job for every job story (a finished job's spec only feeds its status),
// pipe for every unfinished pipeline. Resumed work bypasses the queue and
// pipeline bounds, so no acknowledged story is refused for lack of room.
// A nil state recovers nothing.
func (e *Engine) Recover(state *sched.JournalState,
	job func(*sched.JournalJob) (sched.JobSpec, error),
	pipe func(*sched.JournalPipeline) (PipelineSpec, error)) Recovered {
	var rec Recovered
	if state == nil {
		return rec
	}
	lose := func(id string, err error) { rec.Lost = append(rec.Lost, LostStory{ID: id, Err: err}) }
	s := e.cfg.Scheduler
	for _, jj := range state.Jobs {
		spec, err := job(jj)
		switch {
		case err != nil:
		case jj.Finished:
			_, err = s.RestoreFinished(jj, spec)
		default:
			var j *sched.Job
			if j, err = s.SubmitResumed(context.Background(), jj, spec); err == nil {
				rec.Jobs = append(rec.Jobs, j)
			}
		}
		if err != nil {
			lose(jj.ID, err)
		}
	}
	for _, jp := range state.Pipelines {
		var err error
		if jp.Finished {
			_, err = e.RestoreFinished(jp)
		} else {
			var spec PipelineSpec
			if spec, err = pipe(jp); err == nil {
				var p *Pipeline
				if p, err = e.submit(context.Background(), spec, jp); err == nil {
					e.tel.restored.With("resumed").Inc()
					rec.Pipelines = append(rec.Pipelines, p)
				}
			}
		}
		if err != nil {
			lose(jp.ID, err)
		}
	}
	return rec
}

// submit admits a pipeline; a non-nil resume marks a journal resume (keep
// the original ID, submit time and story, restore seeded stages).
func (e *Engine) submit(ctx context.Context, spec PipelineSpec, resume *sched.JournalPipeline) (*Pipeline, error) {
	if err := spec.Validate(); err != nil {
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
	if !resumed && e.active >= e.cfg.MaxActive {
		e.mu.Unlock()
		return nil, ErrTooManyPipelines
	}
	id, err := e.pipelines.Reserve(id)
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
	}
	for i := range spec.Stages {
		st := &stage{spec: spec.Stages[i], state: StagePending}
		p.stages = append(p.stages, st)
		switch st.spec.Kind {
		case KindScene:
			p.scene = st
		case KindAnalyze:
			p.analyses = append(p.analyses, st)
		case KindSynthesize:
			p.synth = append(p.synth, st)
		}
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
	go e.run(p)
	return p, nil
}

// restoreSeeds marks journal-recorded completed stages as done before the
// run loop starts. A seed that does not parse, or that disagrees with the
// stage's kind, is ignored: the stage simply re-runs. A restored scene
// stage brings back no cube: it rematerializes lazily if needed.
func (p *Pipeline) restoreSeeds(seeds map[string]json.RawMessage) {
	for _, st := range p.stages {
		raw, ok := seeds[st.spec.Name]
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
			st.report = rec.Report
		case KindSynthesize:
			if rec.Synthesis == nil {
				continue
			}
			st.synthesis = rec.Synthesis
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

// run executes the star in three steps: the scene, then every analysis
// concurrently, then the synthesis. A step whose predecessor left a stage
// uncompleted is skipped whole, so a failed scene costs no analysis and
// no synthesis. Sibling analyses keep running after one fails — a
// fan-out reports every branch's outcome, not just the first error's.
func (e *Engine) run(p *Pipeline) {
	defer e.wg.Done()
	var blocked *stage
	for _, step := range [][]*stage{{p.scene}, p.analyses, p.synth} {
		blocked = e.runStep(p, step, blocked)
	}
	e.settle(p)
}

// runStep settles one step's stages and returns the stage that blocks
// the next step: blocked itself if it was already set, else the first of
// these stages, in spec order, that did not complete (nil if all did).
// Journal-restored stages settle without running. With blocked set, the
// others are skipped; otherwise they run concurrently and are settled as
// they finish.
func (e *Engine) runStep(p *Pipeline, step []*stage, blocked *stage) *stage {
	type doneMsg struct {
		st  *stage
		err error
	}
	results := make(chan doneMsg, len(step))
	inFlight := 0
	for _, st := range step {
		switch {
		case st.resumed:
			e.tel.outcomes.With("resumed").Inc()
		case blocked != nil:
			p.mu.Lock()
			st.state = StageSkipped
			st.err = fmt.Errorf("flow: upstream stage %s failed", blocked.spec.Name)
			p.mu.Unlock()
			e.tel.outcomes.With("skipped").Inc()
			e.stageDone(p, st.spec.Name, StageSkipped)
		default:
			p.mu.Lock()
			st.state = StageRunning
			st.started = time.Now()
			p.mu.Unlock()
			e.running.Add(1)
			inFlight++
			go func() { results <- doneMsg{st, p.runStage(st)} }()
		}
	}
	for ; inFlight > 0; inFlight-- {
		msg := <-results
		e.running.Add(-1)

		p.mu.Lock()
		msg.st.finished = time.Now()
		if msg.err != nil {
			msg.st.state = StageFailed
			msg.st.err = msg.err
			if p.err == nil {
				p.err = fmt.Errorf("flow: stage %s: %w", msg.st.spec.Name, msg.err)
			}
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
	}
	for _, st := range step {
		if blocked == nil && st.state != StageCompleted {
			blocked = st
		}
	}
	return blocked
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
		Synthesis: st.synthesis,
	}
	if rep := st.report; rep != nil {
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
// stays open for the next boot to resume. Before the state turns, the
// pipeline lets go of its scene: a retained pipeline costs its reports
// and synthesis, not its cube.
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

	p.sceneMu.Lock()
	p.sc = nil
	p.sceneMu.Unlock()
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
		_, _, cached, err := p.materializeScene()
		if err != nil {
			return err
		}
		p.mu.Lock()
		st.fromCache = cached
		p.mu.Unlock()
		e.tel.cache.With(boolOutcome(cached)).Inc()
		return nil

	case KindAnalyze:
		sc, digest, _, err := p.materializeScene()
		if err != nil {
			return err
		}
		spec := st.spec.Job
		spec.Cube = sc.Cube
		spec.CubeDigest = digest
		if st.spec.Scaled {
			spec.Params = experiments.ScaledParams(spec.Params, p.scene.spec.Scene)
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
		st.report = job.Report()
		p.mu.Unlock()
		e.tel.cache.With(boolOutcome(job.FromCache())).Inc()
		return nil

	case KindSynthesize:
		sc, _, _, err := p.materializeScene()
		if err != nil {
			return err
		}
		// Every analysis settled before this step started, so their
		// fields no longer change.
		inputs := make([]synthInput, 0, len(p.analyses))
		for _, an := range p.analyses {
			inputs = append(inputs, synthInput{name: an.spec.Name, report: an.report, fromCache: an.fromCache})
		}
		syn, err := synthesize(sc, inputs)
		if err != nil {
			return err
		}
		p.mu.Lock()
		st.synthesis = syn
		p.mu.Unlock()
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
