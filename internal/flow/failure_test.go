package flow

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// stageEvents records OnStageDone notifications.
type stageEvents struct {
	mu     sync.Mutex
	events map[string]StageState
}

func newStageEvents() *stageEvents {
	return &stageEvents{events: make(map[string]StageState)}
}

func (r *stageEvents) hook(_ *Pipeline, stage string, state StageState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[stage] = state
}

func (r *stageEvents) get(stage string) (StageState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.events[stage]
	return st, ok
}

// TestDrainMidPipelineSkipsDependents drains the stack while an analyze
// stage's job is in flight: the stage must fail with the
// cancellation, its dependent synthesize stage must be skipped (and
// reported skipped to OnStageDone), and the pipeline's journal story
// must stay open so a restart resumes it.
func TestDrainMidPipelineSkipsDependents(t *testing.T) {
	dir := t.TempDir()
	jl, err := sched.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()

	// The deterministic mid-lifecycle hold point: the stage job is parked
	// on its worker until the drain's cancellation reaches it.
	running := make(chan struct{})
	s := sched.New(sched.Config{
		Workers: 2,
		Journal: jl,
		OnJobRunning: func(j *sched.Job) {
			close(running)
			<-j.Context().Done()
		},
	})
	events := newStageEvents()
	e, err := New(Config{Scheduler: s, OnStageDone: events.hook})
	if err != nil {
		t.Fatal(err)
	}

	job := sched.JobSpec{
		Mode:      sched.ModeRun,
		Algorithm: core.ATDCA,
		Network:   platform.FullyHeterogeneous(),
		Params:    core.Params{Targets: 4},
	}
	spec := PipelineSpec{
		Name: "drain-victim",
		Stages: []StageSpec{
			{Name: "scene", Kind: KindScene, Scene: testSceneCfg},
			{Name: "analyze", Kind: KindAnalyze, After: []string{"scene"}, Job: job},
			{Name: "synth", Kind: KindSynthesize, After: []string{"analyze"}},
		},
		JournalPayload: []byte(`{"name":"drain-victim"}`),
	}
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("stage job never started")
	}
	e.Drain()
	s.Drain()

	if got := p.State(); got != PipelineCancelled {
		t.Fatalf("pipeline state after mid-flight drain: %s, want %s", got, PipelineCancelled)
	}
	status := p.Status()
	byName := map[string]StageStatus{}
	for _, ss := range status.Stages {
		byName[ss.Name] = ss
	}
	if got := byName["analyze"].State; got != StageFailed {
		t.Errorf("analyze stage state: %s, want %s", got, StageFailed)
	}
	if got := byName["synth"].State; got != StageSkipped {
		t.Errorf("synth stage state: %s, want %s (dependent of a drained stage)", got, StageSkipped)
	}
	if st, ok := events.get("analyze"); !ok || st != StageFailed {
		t.Errorf("OnStageDone for analyze: (%s, %v), want (%s, true)", st, ok, StageFailed)
	}
	if st, ok := events.get("synth"); !ok || st != StageSkipped {
		t.Errorf("OnStageDone for synth: (%s, %v), want (%s, true)", st, ok, StageSkipped)
	}

	// A drain defers, it does not abandon: the journal story must still
	// be open for the next boot to resume.
	jl.Close()
	state, err := sched.ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state == nil || len(state.Pipelines) != 1 {
		t.Fatalf("replay saw %+v, want exactly one pipeline story", state)
	}
	if state.Pipelines[0].Finished {
		t.Error("drained pipeline's journal story is closed; drain must leave it open for resume")
	}
}

// TestQueueFullBackoffCancelled exhausts the scheduler's admission queue
// and asserts a pipeline stuck in submitJob's queue-full backoff loop
// honors cancellation instead of retrying forever.
func TestQueueFullBackoffCancelled(t *testing.T) {
	release := make(chan struct{})
	s := sched.New(sched.Config{
		Workers:    1,
		QueueDepth: 1,
		OnJobRunning: func(j *sched.Job) {
			if j.Spec().Label == "parked" {
				<-release // park the only worker
			}
		},
	})
	defer s.Close()
	defer close(release) // before s.Close (LIFO), so the worker can exit

	e, err := New(Config{Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sc, err := scene.Generate(testSceneCfg)
	if err != nil {
		t.Fatal(err)
	}
	parked := analyzeJob(core.ATDCA)
	parked.Label = "parked"
	parked.Cube = sc.Cube
	pj, err := s.Submit(context.Background(), parked)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for pj.State() != sched.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("parked job never started")
		}
		time.Sleep(time.Millisecond)
	}

	filler := analyzeJob(core.UFCLS)
	filler.Label = "filler"
	filler.Cube = sc.Cube
	if _, err := s.Submit(context.Background(), filler); err != nil {
		t.Fatal(err)
	}

	spec := PipelineSpec{
		Name: "backoff-victim",
		Stages: []StageSpec{
			{Name: "scene", Kind: KindScene, Scene: testSceneCfg},
			{Name: "analyze", Kind: KindAnalyze, After: []string{"scene"}, Job: analyzeJob(core.PCT)},
		},
	}
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The stage's submission must hit the full queue at least once
	// before the cancel, so the backoff loop is what gets cancelled.
	deadline = time.Now().Add(30 * time.Second)
	for s.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stage submission never hit the full queue")
		}
		time.Sleep(time.Millisecond)
	}
	p.Cancel()

	select {
	case <-p.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline did not settle after cancellation mid-backoff")
	}
	if got := p.State(); got != PipelineCancelled {
		t.Fatalf("pipeline state: %s, want %s", got, PipelineCancelled)
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("pipeline error: %v, want a context cancellation", err)
	}
}

// TestSceneFailureSkipsEveryStage fails the scene of a fan-out pipeline:
// the provider is asked once, the scene stage fails, and every analysis
// and the synthesis are skipped without running (and reported skipped to
// OnStageDone). A pipeline cancelled before it starts ends with the same
// stage states, its scene stage failing with the cancellation.
func TestSceneFailureSkipsEveryStage(t *testing.T) {
	var calls atomic.Int64
	reg := telemetry.NewRegistry()
	events := newStageEvents()
	e, _ := newTestEngine(t, Config{
		Registry:    reg,
		OnStageDone: events.hook,
		Scenes: func(scene.Config) (*scene.Scene, string, bool, error) {
			calls.Add(1)
			return nil, "", false, errors.New("disk gone")
		},
	})
	check := func(ctx context.Context, want PipelineState, failed, skipped int) {
		t.Helper()
		p, err := e.Submit(ctx, fanoutSpec())
		if err != nil {
			t.Fatal(err)
		}
		st := waitPipeline(t, p)
		if st.State != want {
			t.Fatalf("pipeline state = %s (err %q), want %s", st.State, st.Error, want)
		}
		for _, ss := range st.Stages {
			wantStage := StageSkipped
			if ss.Kind == KindScene {
				wantStage = StageFailed
			}
			if ss.State != wantStage {
				t.Errorf("stage %s = %s (err %q), want %s", ss.Name, ss.State, ss.Error, wantStage)
			}
			if got, ok := events.get(ss.Name); !ok || got != wantStage {
				t.Errorf("OnStageDone for %s: (%s, %v), want (%s, true)", ss.Name, got, ok, wantStage)
			}
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("scene provider called %d times, want 1", n)
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for outcome, n := range map[string]int{"failed": failed, "skipped": skipped} {
			line := `hyperhet_flow_stage_outcomes_total{outcome="` + outcome + `"} ` + strconv.Itoa(n)
			if !strings.Contains(buf.String(), line+"\n") {
				t.Errorf("metrics missing %q:\n%s", line, grepLines(buf.String(), "stage_outcomes"))
			}
		}
	}
	check(context.Background(), PipelineFailed, 1, 5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check(ctx, PipelineCancelled, 2, 10)
}
