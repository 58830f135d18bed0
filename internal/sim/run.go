package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/scene"
	"repro/internal/sched"
)

// SceneCache memoizes generated scenes process-wide. Scenario scenes
// come from a small fixed menu, so one cache shared across every run of
// a soak keeps cube generation out of the measured loop. Provide
// matches flow.SceneProvider.
type SceneCache struct {
	mu sync.Mutex
	m  map[scene.Config]*sceneEntry
}

type sceneEntry struct {
	sc     *scene.Scene
	digest string
}

// NewSceneCache returns an empty cache.
func NewSceneCache() *SceneCache {
	return &SceneCache{m: make(map[scene.Config]*sceneEntry)}
}

// Provide generates (or returns the memoized) scene for cfg.
func (c *SceneCache) Provide(cfg scene.Config) (*scene.Scene, string, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[cfg]; ok {
		return e.sc, e.digest, true, nil
	}
	sc, err := scene.Generate(cfg)
	if err != nil {
		return nil, "", false, err
	}
	e := &sceneEntry{sc: sc, digest: sched.CubeDigest(sc.Cube)}
	c.m[cfg] = e
	return e.sc, e.digest, false, nil
}

// Options configures one Run.
type Options struct {
	// Dir is the journal directory; required, owned by the run.
	Dir string
	// Scenes is the shared scene cache; nil creates a private one.
	Scenes *SceneCache
	// Timeout bounds each phase's settle wait (default 60s). Hitting it
	// is recorded as a "wedged" invariant failure, not a test hang.
	Timeout time.Duration
}

// JobOutcome is one job label's terminal observation.
type JobOutcome struct {
	Label  string
	State  sched.State
	Digest string
}

// PipeOutcome is one pipeline label's terminal observation.
type PipeOutcome struct {
	Label  string
	State  flow.PipelineState
	Digest string
}

// Outcome is everything one Run observed, for the checker.
type Outcome struct {
	Scenario *Scenario
	Jobs     map[string]*JobOutcome
	Pipes    map[string]*PipeOutcome
	// Failures collects invariant breaches seen during the run itself
	// (wedges, counter imbalance, non-terminal states, replay holes).
	Failures []string
}

func (o *Outcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// journalDoc is the label-bearing submission document every sim job and
// pipeline carries into the journal, so a restarted phase can map
// replayed stories back to scenario plans.
type journalDoc struct {
	Label string `json:"label"`
}

func labelPayload(label string) []byte {
	b, _ := json.Marshal(journalDoc{Label: label})
	return b
}

func labelOf(request []byte) string {
	var d journalDoc
	if err := json.Unmarshal(request, &d); err != nil {
		return ""
	}
	return d.Label
}

// jobSpec expands a plan into a submittable spec.
func jobSpec(p JobPlan, scenes *SceneCache) (sched.JobSpec, error) {
	sc, digest, _, err := scenes.Provide(p.Scene)
	if err != nil {
		return sched.JobSpec{}, fmt.Errorf("sim: generating scene for %s: %w", p.Label, err)
	}
	return sched.JobSpec{
		Algorithm:  p.Algorithm,
		Variant:    p.Variant,
		Mode:       p.Mode,
		Network:    networkFor(p.Network),
		CycleTime:  p.CycleTime,
		Cube:       sc.Cube,
		CubeDigest: digest,
		Params: core.Params{
			Targets:   p.Targets,
			WorkScale: p.WorkScale,
			Faults:    p.Faults,
		},
		Priority:       p.Priority,
		Label:          p.Label,
		NoCache:        p.NoCache,
		Checkpoint:     p.Checkpoint,
		Balance:        p.Balance,
		MaxAttempts:    p.MaxAttempts,
		Recovery:       p.Recovery,
		JournalPayload: labelPayload(p.Label),
	}, nil
}

// pipeSpec expands a pipeline plan into a flow spec. Scene cubes are
// materialized lazily by the engine through the scene provider.
func pipeSpec(p PipelinePlan) flow.PipelineSpec {
	spec := flow.PipelineSpec{
		Name:           p.Label,
		JournalPayload: labelPayload(p.Label),
	}
	spec.Stages = append(spec.Stages, flow.StageSpec{
		Name:  "scene",
		Kind:  flow.KindScene,
		Scene: p.Scene,
	})
	var analyzeNames []string
	for i, st := range p.Analyze {
		name := fmt.Sprintf("a%d", i)
		analyzeNames = append(analyzeNames, name)
		spec.Stages = append(spec.Stages, flow.StageSpec{
			Name:  name,
			Kind:  flow.KindAnalyze,
			After: []string{"scene"},
			Job: sched.JobSpec{
				Algorithm: st.Algorithm,
				Variant:   st.Variant,
				Network:   networkFor(st.Network),
				Params: core.Params{
					Targets: st.Targets,
					Faults:  st.Faults,
				},
				MaxAttempts: st.MaxAttempts,
			},
		})
	}
	if p.Synthesize {
		spec.Stages = append(spec.Stages, flow.StageSpec{
			Name:  "synth",
			Kind:  flow.KindSynthesize,
			After: analyzeNames,
		})
	}
	return spec
}

// trigger watches the stack's hook events for one crash point.
type trigger struct {
	cp      *CrashPoint
	fired   chan struct{}
	once    sync.Once
	settled atomic.Int64
}

func newTrigger(cp *CrashPoint) *trigger {
	return &trigger{cp: cp, fired: make(chan struct{})}
}

func (t *trigger) fire() { t.once.Do(func() { close(t.fired) }) }

func (t *trigger) jobRunning(j *sched.Job) {
	if t.cp != nil && t.cp.Kind == TrigJobStart && j.Spec().Label == t.cp.Job {
		t.fire()
	}
}

func (t *trigger) jobCheckpoint(j *sched.Job, round int) {
	if t.cp != nil && t.cp.Kind == TrigCheckpoint && j.Spec().Label == t.cp.Job && round >= t.cp.Round {
		t.fire()
	}
}

func (t *trigger) stageDone(p *flow.Pipeline, stage string, _ flow.StageState) {
	if t.cp != nil && t.cp.Kind == TrigStageDone && p.Name() == t.cp.Pipeline && stage == t.cp.Stage {
		t.fire()
	}
}

func (t *trigger) settle() {
	n := t.settled.Add(1)
	if t.cp != nil && t.cp.Kind == TrigSettled && n >= int64(t.cp.Settle) {
		t.fire()
	}
}

// journalHeaderLen mirrors the sched journal's 8-byte header, which a
// tear never damages: a bad header is a declared fatal error, not a
// crash artifact.
const journalHeaderLen = 8

// tear damages the journal per the crash point, simulating a torn write
// (truncate) or a bad sector (corrupt) at the moment of death.
func tear(dir string, cp *CrashPoint) error {
	if cp.Tear == TearNone {
		return nil
	}
	path := sched.JournalPath(dir)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	size := fi.Size()
	if size <= journalHeaderLen {
		return nil
	}
	off := journalHeaderLen + int64(cp.TearFrac*float64(size-journalHeaderLen))
	if off >= size {
		off = size - 1
	}
	if off < journalHeaderLen {
		off = journalHeaderLen
	}
	switch cp.Tear {
	case TearTruncate:
		return os.Truncate(path, off)
	case TearCorrupt:
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return err
		}
		b[0] ^= 0xFF
		_, err = f.WriteAt(b[:], off)
		return err
	}
	return nil
}

// submitJobRetry absorbs transient queue-full rejections of a fresh
// submission with a bounded retry: scenario queue depths are drawn small
// on purpose, so transient refusal is expected, but a queue that never
// drains is a harness failure. (Resumed jobs are never refused for room.)
// Every attempt's outcome lands in the tally so the phase-end balance
// audit sees exactly what the scheduler counted.
func submitJobRetry(tally *admitTally, f func() (*sched.Job, error)) (*sched.Job, error) {
	for i := 0; ; i++ {
		j, err := f()
		retryable := tally.count(err)
		if err == nil || !retryable || i >= 4000 {
			return j, err
		}
		time.Sleep(time.Millisecond)
	}
}

func submitPipeRetry(f func() (*flow.Pipeline, error)) (*flow.Pipeline, error) {
	for i := 0; ; i++ {
		p, err := f()
		if err == nil || i >= 4000 {
			return p, err
		}
		if !errors.Is(err, flow.ErrTooManyPipelines) && !errors.Is(err, sched.ErrQueueFull) {
			return p, err
		}
		time.Sleep(time.Millisecond)
	}
}

// Run drives one scenario end to end: len(Crashes)+1 process lifetimes
// over a single journal directory, each booting from a replay of the
// (possibly torn) journal, resuming what the previous lifetime left
// unfinished. The returned error reports harness-level trouble only;
// invariant breaches land in Outcome.Failures.
func Run(scn *Scenario, opts Options) (*Outcome, error) {
	if opts.Dir == "" {
		return nil, errors.New("sim: Options.Dir is required")
	}
	if scn.Storm != nil && len(scn.Pipelines) > 0 {
		// Pipelines submit their stage jobs inside the flow engine, outside
		// the harness's admission tally, which would unbalance the
		// rejection accounting the storm invariants assert.
		return nil, errors.New("sim: storm scenarios cannot carry pipelines")
	}
	if scn.Storm != nil && len(scn.Jobs) == 0 {
		// The storm borrows Jobs[0].Scene for its submissions.
		return nil, errors.New("sim: storm scenarios need at least one job")
	}
	if opts.Scenes == nil {
		opts.Scenes = NewSceneCache()
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	out := &Outcome{
		Scenario: scn,
		Jobs:     make(map[string]*JobOutcome),
		Pipes:    make(map[string]*PipeOutcome),
	}
	phases := len(scn.Crashes) + 1
	for phase := 0; phase < phases; phase++ {
		var cp *CrashPoint
		if phase < len(scn.Crashes) {
			cp = &scn.Crashes[phase]
		}
		if err := runPhase(scn, phase, cp, opts, out); err != nil {
			return nil, err
		}
	}
	checkReplay(out, opts.Dir, scn)
	return out, nil
}

func runPhase(scn *Scenario, phase int, cp *CrashPoint, opts Options, out *Outcome) error {
	final := cp == nil

	state, err := sched.ReplayJournalState(opts.Dir)
	if err != nil {
		out.fail("replay: phase %d: %v", phase, err)
		state = nil
	}
	jl, err := sched.OpenJournal(opts.Dir)
	if err != nil {
		return fmt.Errorf("sim: opening journal: %w", err)
	}

	trig := newTrigger(cp)
	tally := &admitTally{}
	s := sched.New(sched.Config{
		Workers:         scn.Workers,
		QueueDepth:      scn.QueueDepth,
		CacheEntries:    scn.CacheEntries,
		RetainJobs:      4096,
		Journal:         jl,
		OnJobRunning:    trig.jobRunning,
		OnJobCheckpoint: trig.jobCheckpoint,
	})
	eng, err := flow.New(flow.Config{
		Scheduler:       s,
		Scenes:          opts.Scenes.Provide,
		RetainPipelines: 4096,
		OnStageDone:     trig.stageDone,
	})
	if err != nil {
		s.Close()
		jl.Close()
		return fmt.Errorf("sim: building engine: %w", err)
	}

	ctx := context.Background()
	wit := &settleWitness{dir: opts.Dir, sched: s}
	var watch []watched
	// A label with a journal story is never submitted fresh, whether or
	// not recovery brings the story back.
	seenJobs := make(map[string]bool)
	seenPipes := make(map[string]bool)
	if state != nil {
		for _, jj := range state.Jobs {
			seenJobs[labelOf(jj.Request)] = true
		}
		for _, jp := range state.Pipelines {
			seenPipes[labelOf(jp.Request)] = true
		}
	}
	rec := eng.Recover(state,
		func(jj *sched.JournalJob) (sched.JobSpec, error) {
			pl, ok := scn.jobPlan(labelOf(jj.Request))
			if !ok {
				return sched.JobSpec{}, fmt.Errorf("has no plan (label %q)", labelOf(jj.Request))
			}
			return jobSpec(pl, opts.Scenes)
		},
		func(jp *sched.JournalPipeline) (flow.PipelineSpec, error) {
			pl, ok := scn.pipePlan(labelOf(jp.Request))
			if !ok {
				return flow.PipelineSpec{}, fmt.Errorf("has no plan (label %q)", labelOf(jp.Request))
			}
			return pipeSpec(pl), nil
		})
	for _, l := range rec.Lost {
		out.fail("replay: phase %d: journal %s: %v", phase, l.ID, l.Err)
	}
	tally.admitted += len(rec.Jobs)
	for _, j := range rec.Jobs {
		watch = append(watch, wit.job(j))
	}
	for _, p := range rec.Pipelines {
		watch = append(watch, wit.pipe(p))
	}
	for _, pl := range scn.Jobs {
		if seenJobs[pl.Label] {
			continue
		}
		spec, err := jobSpec(pl, opts.Scenes)
		if err != nil {
			return err
		}
		j, err := submitJobRetry(tally, func() (*sched.Job, error) { return s.Submit(ctx, spec) })
		if err != nil {
			out.fail("submit: phase %d: job %s: %v", phase, pl.Label, err)
			continue
		}
		watch = append(watch, wit.job(j))
	}
	for _, pl := range scn.Pipelines {
		if seenPipes[pl.Label] {
			continue
		}
		spec := pipeSpec(pl)
		p, err := submitPipeRetry(func() (*flow.Pipeline, error) { return eng.Submit(ctx, spec) })
		if err != nil {
			out.fail("submit: phase %d: pipeline %s: %v", phase, pl.Label, err)
			continue
		}
		watch = append(watch, wit.pipe(p))
	}

	// The storm rides on top of the workload: burst submissions, some
	// doomed by design.
	// Storm handles stay out of `watch` — they are load, not settlement
	// milestones, and the settled-count crash trigger must not see them.
	var stormHandles []*sched.Job
	if scn.Storm != nil {
		stormHandles, err = runStorm(scn, phase, s, opts.Scenes, tally)
		if err != nil {
			eng.Close()
			s.Close()
			jl.Close()
			return err
		}
	}

	var wg sync.WaitGroup
	for _, w := range watch {
		wg.Add(1)
		go func(w watched) {
			defer wg.Done()
			<-w.done
			w.check()
			trig.settle()
		}(w)
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()

	timer := time.NewTimer(opts.Timeout)
	defer timer.Stop()
	wedged := false
	if final {
		select {
		case <-allDone:
		case <-timer.C:
			wedged = true
			out.fail("wedged: phase %d did not settle within %v", phase, opts.Timeout)
		}
	} else {
		select {
		case <-trig.fired:
		case <-allDone: // trigger can never fire; crash on completion
		case <-timer.C:
			wedged = true
			out.fail("wedged: phase %d hit neither trigger nor completion within %v", phase, opts.Timeout)
		}
	}

	if final && !wedged {
		// Clean shutdown: everything settled, Close journals nothing new.
		eng.Close()
		s.Close()
		collect(out, s, eng, scn)
	} else {
		// Crash: drain so open journal stories survive for the next boot.
		wit.draining.Store(true)
		eng.Drain()
		s.Drain()
	}
	if !wedged {
		// Shutdown settled everything, so every watcher finishes; wait for
		// their journal reads before the journal is closed and torn.
		<-allDone
	}
	out.Failures = append(out.Failures, wit.sorted()...)
	jl.Close()
	if !final {
		if err := tear(opts.Dir, cp); err != nil {
			out.fail("tear: phase %d: %v", phase, err)
		}
	}

	st := s.Stats()
	if scn.Storm != nil {
		auditStorm(out, phase, st, tally, stormHandles)
	}
	if st.Queued != 0 || st.Running != 0 {
		out.fail("balance: phase %d left queued=%d running=%d after shutdown", phase, st.Queued, st.Running)
	}
	if st.Submitted != st.Completed+st.Failed+st.Cancelled {
		out.fail("balance: phase %d submitted=%d != completed=%d + failed=%d + cancelled=%d",
			phase, st.Submitted, st.Completed, st.Failed, st.Cancelled)
	}
	if st.VirtualSeconds < 0 {
		out.fail("nonneg: phase %d virtual-seconds bill went negative: %v", phase, st.VirtualSeconds)
	}
	for _, j := range s.Jobs() {
		if !j.State().Final() {
			out.fail("terminal: phase %d job %s (%s) left non-terminal: %s",
				phase, j.ID(), j.Spec().Label, j.State())
		}
	}
	for _, p := range eng.Pipelines() {
		if !p.State().Final() {
			out.fail("terminal: phase %d pipeline %s left non-terminal: %s", phase, p.ID(), p.State())
		}
	}
	return nil
}

// collect records every scenario label's terminal observation after the
// final phase shut down cleanly.
func collect(out *Outcome, s *sched.Scheduler, eng *flow.Engine, scn *Scenario) {
	jobsByLabel := make(map[string][]*sched.Job)
	for _, j := range s.Jobs() {
		if l := j.Spec().Label; l != "" {
			jobsByLabel[l] = append(jobsByLabel[l], j)
		}
	}
	for _, pl := range scn.Jobs {
		js := jobsByLabel[pl.Label]
		if len(js) == 0 {
			out.fail("terminal: job %s has no instance after the final phase", pl.Label)
			continue
		}
		if len(js) > 1 {
			out.fail("terminal: job %s has %d live instances; want exactly one terminal state", pl.Label, len(js))
		}
		j := js[0]
		out.Jobs[pl.Label] = &JobOutcome{
			Label:  pl.Label,
			State:  j.State(),
			Digest: jobDigest(j, pl.Checkpoint),
		}
		checkJobNonneg(out, pl.Label, j)
	}

	pipesByLabel := make(map[string][]*flow.Pipeline)
	for _, p := range eng.Pipelines() {
		name := p.Name()
		if name == "" {
			name = p.Status().Name // journal-restored pipelines
		}
		if name != "" {
			pipesByLabel[name] = append(pipesByLabel[name], p)
		}
	}
	for _, pl := range scn.Pipelines {
		ps := pipesByLabel[pl.Label]
		if len(ps) == 0 {
			out.fail("terminal: pipeline %s has no instance after the final phase", pl.Label)
			continue
		}
		if len(ps) > 1 {
			out.fail("terminal: pipeline %s has %d live instances; want exactly one terminal state", pl.Label, len(ps))
		}
		p := ps[0]
		status := p.Status()
		out.Pipes[pl.Label] = &PipeOutcome{
			Label:  pl.Label,
			State:  status.State,
			Digest: pipeDigest(status),
		}
		checkPipeNonneg(out, pl.Label, status)
	}
}

// checkReplay re-reads the journal after the last phase and asserts it
// reconstructs the same terminal set the live run observed: exactly one
// finished story per label, with the matching state.
func checkReplay(out *Outcome, dir string, scn *Scenario) {
	state, err := sched.ReplayJournalState(dir)
	if err != nil {
		out.fail("replay: final journal replay failed: %v", err)
		return
	}
	if state == nil {
		out.fail("replay: final journal missing")
		return
	}
	jobs := make(map[string]*sched.JournalJob)
	for _, jj := range state.Jobs {
		label := labelOf(jj.Request)
		if label == "" {
			out.fail("replay: journal job %s carries no label", jj.ID)
			continue
		}
		if prev, ok := jobs[label]; ok {
			out.fail("replay: label %s has two journal stories (%s, %s)", label, prev.ID, jj.ID)
			continue
		}
		jobs[label] = jj
	}
	for _, pl := range scn.Jobs {
		jo := out.Jobs[pl.Label]
		if jo == nil {
			continue // already reported by collect
		}
		jj := jobs[pl.Label]
		if jj == nil {
			out.fail("replay: job %s missing from the final journal", pl.Label)
			continue
		}
		if !jj.Finished {
			out.fail("replay: job %s story still open after a clean shutdown", pl.Label)
			continue
		}
		if jj.State != jo.State {
			out.fail("replay: job %s journaled state %s, live run observed %s", pl.Label, jj.State, jo.State)
		}
	}

	pipes := make(map[string]*sched.JournalPipeline)
	for _, jp := range state.Pipelines {
		label := labelOf(jp.Request)
		if label == "" {
			out.fail("replay: journal pipeline %s carries no label", jp.ID)
			continue
		}
		if prev, ok := pipes[label]; ok {
			out.fail("replay: label %s has two journal stories (%s, %s)", label, prev.ID, jp.ID)
			continue
		}
		pipes[label] = jp
	}
	for _, pl := range scn.Pipelines {
		po := out.Pipes[pl.Label]
		if po == nil {
			continue
		}
		jp := pipes[pl.Label]
		if jp == nil {
			out.fail("replay: pipeline %s missing from the final journal", pl.Label)
			continue
		}
		if !jp.Finished {
			out.fail("replay: pipeline %s story still open after a clean shutdown", pl.Label)
			continue
		}
		if jp.State != string(po.State) {
			out.fail("replay: pipeline %s journaled state %s, live run observed %s", pl.Label, jp.State, po.State)
		}
	}
}

func checkJobNonneg(out *Outcome, label string, j *sched.Job) {
	rep := j.Report()
	if rep == nil {
		return
	}
	for name, v := range map[string]float64{
		"wall-time":           rep.WallTime,
		"com":                 rep.Com,
		"seq":                 rep.Seq,
		"par":                 rep.Par,
		"recovery-overhead":   rep.RecoveryOverhead,
		"checkpoint-overhead": rep.CheckpointOverhead,
	} {
		if v < 0 {
			out.fail("nonneg: job %s %s is negative: %v", label, name, v)
		}
	}
	for i, v := range rep.ProcTimes {
		if v < 0 {
			out.fail("nonneg: job %s rank %d virtual-time bill is negative: %v", label, i, v)
		}
	}
	for i, v := range rep.BusyTimes {
		if v < 0 {
			out.fail("nonneg: job %s rank %d busy time is negative: %v", label, i, v)
		}
	}
}

func checkPipeNonneg(out *Outcome, label string, status flow.PipelineStatus) {
	if status.VirtualSeconds < 0 {
		out.fail("nonneg: pipeline %s virtual seconds negative: %v", label, status.VirtualSeconds)
	}
	for _, st := range status.Stages {
		if st.VirtualSeconds < 0 {
			out.fail("nonneg: pipeline %s stage %s virtual seconds negative: %v", label, st.Name, st.VirtualSeconds)
		}
	}
}
