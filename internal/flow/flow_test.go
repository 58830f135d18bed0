package flow

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// testSceneCfg is the shared tiny scene every test pipeline analyzes.
var testSceneCfg = scene.Config{Lines: 24, Samples: 16, Bands: 8, Seed: 3}

// analyzeJob is a fast sequential detector job template; the engine
// fills Cube and CubeDigest from the upstream scene stage.
func analyzeJob(alg core.Algorithm) sched.JobSpec {
	return sched.JobSpec{
		Mode:      sched.ModeSequential,
		Algorithm: alg,
		// The tiny scene has 8 bands; the default t=18 would degenerate.
		Params: core.Params{Targets: 4},
	}
}

// fanoutSpec is the canonical test pipeline: one scene, an ATDCA/UFCLS/
// PCT/MORPH fan-out, and a synthesis stage folding all four.
func fanoutSpec() PipelineSpec {
	return PipelineSpec{
		Name: "table3+4",
		Stages: []StageSpec{
			{Name: "scene", Kind: KindScene, Scene: testSceneCfg},
			{Name: "atdca", Kind: KindAnalyze, After: []string{"scene"}, Job: analyzeJob(core.ATDCA)},
			{Name: "ufcls", Kind: KindAnalyze, After: []string{"scene"}, Job: analyzeJob(core.UFCLS)},
			{Name: "pct", Kind: KindAnalyze, After: []string{"scene"}, Job: analyzeJob(core.PCT)},
			{Name: "morph", Kind: KindAnalyze, After: []string{"scene"}, Job: analyzeJob(core.MORPH)},
			{Name: "report", Kind: KindSynthesize, After: []string{"atdca", "ufcls", "pct", "morph"}},
		},
	}
}

// countingProvider wraps the default provider and counts generations.
func countingProvider(gen *atomic.Int64) SceneProvider {
	var mu sync.Mutex
	cache := map[scene.Config]*scene.Scene{}
	return func(cfg scene.Config) (*scene.Scene, string, bool, error) {
		mu.Lock()
		defer mu.Unlock()
		if sc, ok := cache[cfg]; ok {
			return sc, sched.CubeDigest(sc.Cube), true, nil
		}
		gen.Add(1)
		sc, err := scene.Generate(cfg)
		if err != nil {
			return nil, "", false, err
		}
		cache[cfg] = sc
		return sc, sched.CubeDigest(sc.Cube), false, nil
	}
}

func newTestEngine(t *testing.T, cfg Config) (*Engine, *sched.Scheduler) {
	t.Helper()
	s := sched.New(sched.Config{Workers: 4, QueueDepth: 64, CacheEntries: 32})
	cfg.Scheduler = s
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.Close()
		s.Close()
	})
	return e, s
}

// resume brings one journaled unfinished pipeline back through Recover.
func resume(e *Engine, jp *sched.JournalPipeline, spec PipelineSpec) (*Pipeline, error) {
	rec := e.Recover(&sched.JournalState{Pipelines: []*sched.JournalPipeline{jp}}, nil,
		func(*sched.JournalPipeline) (PipelineSpec, error) { return spec, nil })
	if len(rec.Lost) > 0 {
		return nil, rec.Lost[0].Err
	}
	return rec.Pipelines[0], nil
}

func waitPipeline(t *testing.T, p *Pipeline) PipelineStatus {
	t.Helper()
	select {
	case <-p.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("pipeline %s did not settle", p.ID())
	}
	return p.Status()
}

// --- Validation -------------------------------------------------------

func TestValidateRejects(t *testing.T) {
	sceneStage := StageSpec{Name: "s", Kind: KindScene, Scene: testSceneCfg}
	an := func(name string, after ...string) StageSpec {
		return StageSpec{Name: name, Kind: KindAnalyze, After: after, Job: analyzeJob(core.ATDCA)}
	}
	cases := []struct {
		name    string
		spec    PipelineSpec
		wantSub string
	}{
		{"empty", PipelineSpec{}, "no stages"},
		{"unnamed", PipelineSpec{Stages: []StageSpec{{Kind: KindScene}}}, "has no name"},
		{"long name", PipelineSpec{Stages: []StageSpec{
			{Name: strings.Repeat("x", maxStageName+1), Kind: KindScene},
		}}, "exceeds"},
		{"duplicate names", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"), an("a", "s"),
		}}, "duplicate stage name"},
		{"self loop", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "a"),
		}}, "must run after exactly the scene stage"},
		{"unknown ref", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "ghost"),
		}}, "unknown stage"},
		{"duplicate edge", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"),
			{Name: "z", Kind: KindSynthesize, After: []string{"a", "a"}},
		}}, "twice"},
		{"cycle", PipelineSpec{Stages: []StageSpec{
			sceneStage,
			{Name: "a", Kind: KindAnalyze, After: []string{"b"}},
			{Name: "b", Kind: KindAnalyze, After: []string{"a"}},
		}}, "must run after exactly the scene stage"},
		{"scene with deps", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"),
			{Name: "s2", Kind: KindScene, After: []string{"a"}},
		}}, "second scene stage"},
		{"analyze without scene", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"), an("b", "a"),
		}}, "must run after exactly the scene stage"},
		{"analyze with two deps", PipelineSpec{Stages: []StageSpec{
			sceneStage, {Name: "s2", Kind: KindScene}, an("a", "s", "s2"),
		}}, "second scene stage"},
		{"synthesize of scene", PipelineSpec{Stages: []StageSpec{
			sceneStage,
			{Name: "z", Kind: KindSynthesize, After: []string{"s"}},
		}}, "analyze stages only"},
		{"synthesize without deps", PipelineSpec{Stages: []StageSpec{
			sceneStage, {Name: "z", Kind: KindSynthesize},
		}}, "at least one"},
		{"unknown kind", PipelineSpec{Stages: []StageSpec{
			{Name: "w", Kind: StageKind("mystery")},
		}}, "unknown kind"},
		// Shapes outside the star, and the star rules no case above reaches.
		{"two scenes", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"),
			{Name: "s2", Kind: KindScene, Scene: testSceneCfg}, an("b", "s2"),
		}}, "not a star: second scene stage"},
		{"synthesis of a subset", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"), an("b", "s"),
			{Name: "z", Kind: KindSynthesize, After: []string{"a"}},
		}}, "not a star: synthesize stage \"z\" must run after every analyze stage (1 of 2 listed)"},
		{"two syntheses", PipelineSpec{Stages: []StageSpec{
			sceneStage, an("a", "s"),
			{Name: "z", Kind: KindSynthesize, After: []string{"a"}},
			{Name: "y", Kind: KindSynthesize, After: []string{"a"}},
		}}, "not a star: second synthesize stage"},
		{"no scene", PipelineSpec{Stages: []StageSpec{
			{Name: "z", Kind: KindSynthesize},
		}}, "not a star: no scene stage"},
		{"scene after its analysis", PipelineSpec{Stages: []StageSpec{
			{Name: "s", Kind: KindScene, After: []string{"a"}}, an("a", "s"),
		}}, "not a star: scene stage \"s\" cannot depend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if !errors.Is(err, ErrInvalidPipeline) {
				t.Fatalf("err = %v, want ErrInvalidPipeline", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// A star listed out of order — synthesis first, scene last, the
// synthesis naming its analyses in another order — is accepted, runs,
// and reports its stages in document order.
func TestStarOutOfOrderKeepsDocumentOrder(t *testing.T) {
	spec := PipelineSpec{Stages: []StageSpec{
		{Name: "z", Kind: KindSynthesize, After: []string{"b", "a"}},
		{Name: "a", Kind: KindAnalyze, After: []string{"s"}, Job: analyzeJob(core.ATDCA)},
		{Name: "b", Kind: KindAnalyze, After: []string{"s"}, Job: analyzeJob(core.UFCLS)},
		{Name: "s", Kind: KindScene, Scene: testSceneCfg},
	}}
	e, _ := newTestEngine(t, Config{})
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	var names []string
	for _, ss := range st.Stages {
		names = append(names, ss.Name)
	}
	if want := []string{"z", "a", "b", "s"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("status stages = %v, want document order %v", names, want)
	}
	if got := st.Stages[0].After; !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("synthesis after = %v, want [b a] as submitted", got)
	}
}

// --- Execution --------------------------------------------------------

func TestFanoutPipelineCompletes(t *testing.T) {
	var gens atomic.Int64
	e, _ := newTestEngine(t, Config{Scenes: countingProvider(&gens)})

	p, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	if gens.Load() != 1 {
		t.Fatalf("scene generated %d times, want exactly 1", gens.Load())
	}
	if st.StagesCompleted != 6 || st.StagesTotal != 6 {
		t.Fatalf("stages = %d/%d, want 6/6", st.StagesCompleted, st.StagesTotal)
	}
	syn := p.Synthesis("report")
	if syn == nil {
		t.Fatal("synthesis stage produced nothing")
	}
	if len(syn.Detection) != 2 {
		t.Fatalf("detection entries = %d, want 2 (atdca, ufcls)", len(syn.Detection))
	}
	if len(syn.Classification) != 2 {
		t.Fatalf("classification entries = %d, want 2 (pct, morph)", len(syn.Classification))
	}
	if syn.TotalVirtualSeconds <= 0 {
		t.Fatal("synthesis reports zero virtual time")
	}
	if len(syn.Timing) != 4 {
		t.Fatalf("timing rows = %d, want 4", len(syn.Timing))
	}
	for label, sad := range syn.Detection["atdca"] {
		if sad < 0 {
			t.Fatalf("hot spot %s has negative SAD %v", label, sad)
		}
	}
	for name, cs := range syn.Classification {
		if cs.OverallPercent <= 0 || cs.OverallPercent > 100 {
			t.Fatalf("%s overall = %v%%, want (0, 100]", name, cs.OverallPercent)
		}
	}
}

func TestResubmitHitsResultCache(t *testing.T) {
	var gens atomic.Int64
	e, _ := newTestEngine(t, Config{Scenes: countingProvider(&gens)})

	first, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitPipeline(t, first); st.CacheHits != 0 {
		t.Fatalf("first run reported %d cache hits, want 0", st.CacheHits)
	}

	second, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, second)
	if st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	// Scene (provider cache) + all four analyze stages (scheduler LRU).
	if st.CacheHits != 5 {
		t.Fatalf("cache hits = %d, want 5", st.CacheHits)
	}
	if st.VirtualSeconds != 0 {
		t.Fatalf("fresh virtual seconds = %v, want 0 on a fully memoized rerun", st.VirtualSeconds)
	}
	if gens.Load() != 1 {
		t.Fatalf("scene generated %d times across two pipelines, want 1", gens.Load())
	}
	for _, ss := range st.Stages {
		if ss.Kind == KindAnalyze && !ss.FromCache {
			t.Fatalf("analyze stage %s missed the result cache on rerun", ss.Name)
		}
	}
}

func TestUpstreamFailureSkipsDependents(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	spec := fanoutSpec()
	// Sabotage one branch: an impossible target count fails validation in
	// the simulator.
	for i := range spec.Stages {
		if spec.Stages[i].Name == "ufcls" {
			spec.Stages[i].Job.Params.Targets = -4
		}
	}
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "ufcls") {
		t.Fatalf("pipeline error %v does not name the failed stage", p.Err())
	}
	byName := map[string]StageStatus{}
	for _, ss := range st.Stages {
		byName[ss.Name] = ss
	}
	if byName["ufcls"].State != StageFailed {
		t.Fatalf("ufcls state = %s, want failed", byName["ufcls"].State)
	}
	if byName["report"].State != StageSkipped {
		t.Fatalf("report state = %s, want skipped", byName["report"].State)
	}
	// Independent branches still finish: a fan-out reports every branch.
	for _, name := range []string{"atdca", "pct", "morph"} {
		if byName[name].State != StageCompleted {
			t.Fatalf("%s state = %s, want completed despite sibling failure", name, byName[name].State)
		}
	}
}

func TestCancelPipeline(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before any stage can finish
	p, err := e.Submit(ctx, fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

// A settled pipeline costs its reports, not its cubes: after Done() no
// stage holds a scene, however the pipeline ended, and the release does
// not race a concurrent Status() reader.
func TestPipelineSettleReleasesCube(t *testing.T) {
	failing := fanoutSpec()
	for i := range failing.Stages {
		if failing.Stages[i].Name == "ufcls" {
			failing.Stages[i].Job.Params.Targets = -4
		}
	}
	for _, tc := range []struct {
		spec   PipelineSpec
		cancel bool
		want   PipelineState
	}{
		{fanoutSpec(), false, PipelineCompleted},
		{failing, false, PipelineFailed},
		{fanoutSpec(), true, PipelineCancelled},
	} {
		var gens atomic.Int64
		cfg := Config{Scenes: countingProvider(&gens)}
		if tc.cancel {
			// Cancel once the scene exists, before any analysis can finish.
			cfg.OnStageDone = func(p *Pipeline, stage string, _ StageState) {
				if stage == "scene" {
					p.Cancel()
				}
			}
		}
		e, _ := newTestEngine(t, cfg)
		p, err := e.Submit(context.Background(), tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		stop, read := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(read)
			for {
				select {
				case <-stop:
					return
				default:
					_ = p.Status()
				}
			}
		}()
		st := waitPipeline(t, p)
		close(stop)
		<-read
		if st.State != tc.want || gens.Load() != 1 {
			t.Fatalf("pipeline %s: state %s after %d scene generations, want %s after 1", p.ID(), st.State, gens.Load(), tc.want)
		}
		p.sceneMu.Lock()
		held := p.sc != nil
		p.sceneMu.Unlock()
		if held {
			t.Fatalf("%s pipeline still holds its scene", st.State)
		}
	}
}

func TestEngineCaps(t *testing.T) {
	e, _ := newTestEngine(t, Config{MaxActive: 1})
	small := PipelineSpec{Stages: []StageSpec{
		{Name: "s", Kind: KindScene, Scene: testSceneCfg},
		{Name: "a", Kind: KindAnalyze, After: []string{"s"}, Job: analyzeJob(core.ATDCA)},
	}}
	p1, err := e.Submit(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	// While p1 may still be active, a second submit can hit the cap; if
	// p1 settles first, the second submit is simply admitted.
	if _, err := e.Submit(context.Background(), small); err != nil && !errors.Is(err, ErrTooManyPipelines) {
		t.Fatalf("err = %v, want nil or ErrTooManyPipelines", err)
	}
	waitPipeline(t, p1)
	if _, err := e.Pipeline("pipe-999"); !errors.Is(err, ErrUnknownPipeline) {
		t.Fatalf("unknown lookup err = %v, want ErrUnknownPipeline", err)
	}
}

// --- Journal: durability, resume, restore ----------------------------

func TestPipelineJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, err := sched.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{Workers: 4, QueueDepth: 64, CacheEntries: 32, Journal: jl})
	e, err := New(Config{Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close(); s.Close() }()

	spec := fanoutSpec()
	spec.JournalPayload = []byte(`{"doc":"original-submission"}`)
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitPipeline(t, p); st.State != PipelineCompleted {
		t.Fatalf("state = %s, want completed", st.State)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	state, err := sched.ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Pipelines) != 1 {
		t.Fatalf("replayed %d pipelines, want 1", len(state.Pipelines))
	}
	jp := state.Pipelines[0]
	if jp.ID != p.ID() || !jp.Finished || jp.State != string(PipelineCompleted) {
		t.Fatalf("journal pipeline = %+v, want finished completed %s", jp, p.ID())
	}
	if string(jp.Request) != `{"doc":"original-submission"}` {
		t.Fatalf("journal request = %s, want original payload", jp.Request)
	}
	if len(jp.Stages) != 6 {
		t.Fatalf("journal recorded %d stage records, want 6", len(jp.Stages))
	}
	// Stage jobs must NOT have produced job records of their own.
	if len(state.Jobs) != 0 {
		t.Fatalf("stage jobs leaked %d job journal stories", len(state.Jobs))
	}

	// Restore the finished pipeline into a fresh engine as history.
	e2, _ := newTestEngine(t, Config{})
	rp, err := e2.RestoreFinished(jp)
	if err != nil {
		t.Fatal(err)
	}
	rst := rp.Status()
	if rst.State != PipelineCompleted || rst.StagesCompleted != 6 {
		t.Fatalf("restored status = %s %d/6 completed", rst.State, rst.StagesCompleted)
	}
	if rst.Stages[5].Synthesis == nil {
		t.Fatal("restored status lost the synthesis payload")
	}
	// Fresh IDs must advance past the restored one.
	np, err := e2.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if np.ID() == rp.ID() {
		t.Fatalf("fresh pipeline reused restored ID %s", np.ID())
	}
	waitPipeline(t, np)
}

// An adaptive analyze stage journals its trace on its one report, and a
// pipeline resumed from that record restores the trace with the stage.
func TestAdaptiveStageResumesWithTrace(t *testing.T) {
	dir := t.TempDir()
	jl, err := sched.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{Workers: 2, QueueDepth: 8, Journal: jl})
	e, err := New(Config{Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	spec := PipelineSpec{Name: "adaptive", Stages: []StageSpec{
		{Name: "scene", Kind: KindScene, Scene: testSceneCfg},
		{Name: "adapt", Kind: KindAnalyze, After: []string{"scene"}, Job: sched.JobSpec{
			Algorithm: core.ATDCA,
			Variant:   core.Adaptive,
			Network:   platform.FullyHeterogeneous(),
			Params:    core.Params{Targets: 4},
		}},
	}}
	p, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitPipeline(t, p); st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	e.Close()
	s.Close()
	jl.Close()
	stageTrace := func(p *Pipeline) *algo.AdaptiveTrace {
		p.mu.Lock()
		defer p.mu.Unlock()
		if rep := p.stage("adapt").report; rep != nil {
			return rep.Adaptive
		}
		return nil
	}
	live := stageTrace(p)
	if live == nil || len(live.Imbalance) != 4 {
		t.Fatalf("live stage trace = %+v, want one entry per detection round", live)
	}

	state, err := sched.ReplayJournalState(dir)
	if err != nil || state == nil || len(state.Pipelines) != 1 {
		t.Fatalf("replay: %+v, %v; want one pipeline", state, err)
	}
	jp := state.Pipelines[0]
	if n := strings.Count(string(jp.Stages["adapt"]), `"WallTime"`); n != 1 {
		t.Fatalf("stage record holds %d reports, want 1", n)
	}
	// Resume an open story holding the same stage records.
	e2, _ := newTestEngine(t, Config{})
	open := &sched.JournalPipeline{ID: jp.ID, Submitted: jp.Submitted, Stages: jp.Stages}
	rp, err := resume(e2, open, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitPipeline(t, rp); st.State != PipelineCompleted || st.StagesResumed != 2 {
		t.Fatalf("resumed: state %s, %d stages resumed; want completed with 2", st.State, st.StagesResumed)
	}
	if got := stageTrace(rp); !reflect.DeepEqual(got, live) {
		t.Fatalf("resumed stage trace = %+v, want %+v", got, live)
	}
}

func TestDrainLeavesOpenStoryAndResumeSkipsCompletedStages(t *testing.T) {
	dir := t.TempDir()
	jl, err := sched.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One worker and a gate: the scene completes, one analyze branch
	// completes, and the pipeline's run loop parks in the stage hook —
	// after that stage's journal record, before any dependent can start —
	// until the drain cancels the pipeline. The other analyze stages are
	// therefore still outstanding whenever the drain lands.
	reached := make(chan struct{})
	parked := false // run-loop goroutine only
	gate := func(p *Pipeline, stage string, state StageState) {
		if parked || state != StageCompleted || p.stage(stage).spec.Kind != KindAnalyze {
			return
		}
		parked = true
		close(reached)
		<-p.ctx.Done()
	}
	s := sched.New(sched.Config{Workers: 1, QueueDepth: 64, CacheEntries: -1, Journal: jl})
	e, err := New(Config{Scheduler: s, OnStageDone: gate})
	if err != nil {
		t.Fatal(err)
	}

	p, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(20 * time.Second):
		t.Fatal("no analyze stage completed in time")
	}

	// Graceful drain: engine first (cancels the pipeline without a
	// terminal record), then the scheduler, then the journal.
	e.Drain()
	s.Drain()
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.State(); st != PipelineCancelled && st != PipelineFailed {
		t.Fatalf("drained pipeline state = %s, want cancelled or failed", st)
	}

	state, err := sched.ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Pipelines) != 1 {
		t.Fatalf("replayed %d pipelines, want 1", len(state.Pipelines))
	}
	jp := state.Pipelines[0]
	if jp.Finished {
		t.Fatal("drained pipeline journaled a terminal record; story should stay open")
	}
	restoredStages := len(jp.Stages)
	if restoredStages == 0 {
		t.Fatal("no stage records journaled before the drain")
	}

	// Second boot: resume. Completed stages restore; the rest run.
	var gens atomic.Int64
	s2 := sched.New(sched.Config{Workers: 4, QueueDepth: 64, CacheEntries: -1})
	e2, err := New(Config{Scheduler: s2, Scenes: countingProvider(&gens)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e2.Close(); s2.Close() }()
	rp, err := resume(e2, jp, fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rp.ID() != p.ID() {
		t.Fatalf("resumed pipeline ID = %s, want original %s", rp.ID(), p.ID())
	}
	st := waitPipeline(t, rp)
	if st.State != PipelineCompleted {
		t.Fatalf("resumed state = %s (err %q), want completed", st.State, st.Error)
	}
	if !st.Resumed {
		t.Fatal("resumed pipeline not marked resumed")
	}
	if st.StagesResumed != restoredStages {
		t.Fatalf("stages resumed = %d, want %d (the journaled completions)", st.StagesResumed, restoredStages)
	}
	for _, ss := range st.Stages {
		if ss.Resumed && ss.Kind == KindAnalyze && ss.VirtualSeconds <= 0 {
			t.Fatalf("restored analyze stage %s lost its report", ss.Name)
		}
	}
	if syn := rp.Synthesis("report"); syn == nil || len(syn.Timing) != 4 {
		t.Fatal("resumed pipeline produced no complete synthesis")
	}
	// The scene regenerates at most once, and only if a pending stage
	// needed it.
	if gens.Load() > 1 {
		t.Fatalf("resume regenerated the scene %d times", gens.Load())
	}
}

// Listing order survives a restart whichever way a pipeline came back: an
// older pipeline resumed from its open story lists before a newer one
// restored as finished history. The submit time is fixed when the ledger
// registers the pipeline, so listing concurrently with the replay is
// race-free (run under -race).
func TestRestartListingOrderAndListWhileResuming(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	stop := make(chan struct{})
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		for {
			select {
			case <-stop:
				return
			default:
				e.Pipelines()
			}
		}
	}()

	t0 := time.Now().Add(-time.Hour)
	status, err := json.Marshal(PipelineStatus{ID: "pipe-2", State: PipelineCompleted})
	if err != nil {
		t.Fatal(err)
	}
	newer := &sched.JournalPipeline{
		ID: "pipe-2", Submitted: t0.Add(time.Minute),
		Finished: true, State: string(PipelineCompleted), Status: status,
	}
	if _, err := e.RestoreFinished(newer); err != nil {
		t.Fatal(err)
	}
	older := &sched.JournalPipeline{ID: "pipe-1", Submitted: t0}
	p, err := resume(e, older, fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-listed

	var got []string
	for _, lp := range e.Pipelines() {
		got = append(got, lp.ID())
	}
	if want := []string{"pipe-1", "pipe-2", "pipe-3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("listing order = %v, want %v (oldest submission first)", got, want)
	}
	if st := p.Status(); !st.Submitted.Equal(t0) {
		t.Fatalf("resumed pipeline reports submitted %v, want the journaled %v", st.Submitted, t0)
	}
	waitPipeline(t, p)
	waitPipeline(t, fresh)
}

func TestResumeIgnoresCorruptSeeds(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	jp := &sched.JournalPipeline{
		ID: "pipe-7",
		Stages: map[string]json.RawMessage{
			"atdca": json.RawMessage(`{"kind":"scene"}`), // kind mismatch
			"ufcls": json.RawMessage(`not json`),         // unreadable
			"ghost": json.RawMessage(`{"kind":"analyze"}`),
		},
	}
	p, err := resume(e, jp, fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	if st.StagesResumed != 0 {
		t.Fatalf("corrupt seeds restored %d stages, want 0 (all re-run)", st.StagesResumed)
	}
}

// A scene stage record from a journal whose stage records still carried
// the scene digest decodes (JSON drops the unknown field) and resumes: the
// scene stage is skipped, and the scene regenerates at most once, for the
// analyses that still need it.
func TestResumeSkipsLegacySceneRecordWithDigest(t *testing.T) {
	var gens atomic.Int64
	e, _ := newTestEngine(t, Config{Scenes: countingProvider(&gens)})
	jp := &sched.JournalPipeline{
		ID: "pipe-3",
		Stages: map[string]json.RawMessage{
			"scene": json.RawMessage(`{"kind":"scene","digest":"5d41402abc4b2a76b9719d911017c592"}`),
		},
	}
	p, err := resume(e, jp, fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitPipeline(t, p)
	if st.State != PipelineCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Error)
	}
	if st.StagesResumed != 1 {
		t.Fatalf("stages resumed = %d, want the scene's 1", st.StagesResumed)
	}
	for _, ss := range st.Stages {
		if ss.Resumed != (ss.Kind == KindScene) {
			t.Fatalf("stage %s (%s) resumed = %v", ss.Name, ss.Kind, ss.Resumed)
		}
	}
	if gens.Load() > 1 {
		t.Fatalf("resume generated the scene %d times", gens.Load())
	}
}

// A resumed pipeline was admitted before the restart, so the active cap
// does not refuse it, while a fresh submission at the cap still gets
// ErrTooManyPipelines.
func TestResumedPipelineIgnoresMaxActive(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	e, _ := newTestEngine(t, Config{MaxActive: 1, Scenes: func(cfg scene.Config) (*scene.Scene, string, bool, error) {
		<-gate // holds every pipeline active at its scene stage
		return defaultScenes(cfg)
	}})
	first, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := resume(e, &sched.JournalPipeline{ID: "pipe-9"}, fanoutSpec())
	if err != nil {
		t.Fatalf("resuming past the active cap: %v", err)
	}
	if _, err := e.Submit(context.Background(), fanoutSpec()); !errors.Is(err, ErrTooManyPipelines) {
		t.Fatalf("fresh submit at the cap: err = %v, want ErrTooManyPipelines", err)
	}
	release()
	for _, p := range []*Pipeline{first, resumed} {
		if st := waitPipeline(t, p); st.State != PipelineCompleted {
			t.Fatalf("pipeline %s settled %s (%s)", p.ID(), st.State, st.Error)
		}
	}
}

// Recover restores finished stories, resumes unfinished ones and names
// every story it could not bring back, whether its rebuild failed or the
// scheduler refused it.
func TestRecoverRestoresResumesAndReportsLost(t *testing.T) {
	e, s := newTestEngine(t, Config{})
	sc, err := scene.Generate(testSceneCfg)
	if err != nil {
		t.Fatal(err)
	}
	status, err := json.Marshal(PipelineStatus{ID: "pipe-1", State: PipelineCompleted})
	if err != nil {
		t.Fatal(err)
	}
	state := &sched.JournalState{
		Jobs: []*sched.JournalJob{
			{ID: "job-1", Request: []byte("ok"), Finished: true, State: sched.StateCompleted},
			{ID: "job-2", Request: []byte("ok")},
			{ID: "job-3", Request: []byte("unparseable")},
			{ID: "job-4", Request: []byte("ok"), Finished: true, State: "bogus"},
		},
		Pipelines: []*sched.JournalPipeline{
			{ID: "pipe-1", Finished: true, State: string(PipelineCompleted), Status: status},
			{ID: "pipe-2", Request: []byte("ok")},
			{ID: "pipe-3", Request: []byte("unparseable")},
		},
	}
	bad := errors.New("unparseable")
	rec := e.Recover(state,
		func(jj *sched.JournalJob) (sched.JobSpec, error) {
			if string(jj.Request) != "ok" {
				return sched.JobSpec{}, bad
			}
			spec := analyzeJob(core.ATDCA)
			spec.Cube = sc.Cube
			return spec, nil
		},
		func(jp *sched.JournalPipeline) (PipelineSpec, error) {
			if string(jp.Request) != "ok" {
				return PipelineSpec{}, bad
			}
			return fanoutSpec(), nil
		})
	if len(rec.Jobs) != 1 || len(rec.Pipelines) != 1 {
		t.Fatalf("resumed %d jobs and %d pipelines, want 1 and 1", len(rec.Jobs), len(rec.Pipelines))
	}
	var lost []string
	for _, l := range rec.Lost {
		lost = append(lost, l.ID)
		if l.Err == nil {
			t.Errorf("lost story %s carries no error", l.ID)
		}
	}
	if want := []string{"job-3", "job-4", "pipe-3"}; !reflect.DeepEqual(lost, want) {
		t.Fatalf("lost %v, want %v", lost, want)
	}
	if j := rec.Jobs[0]; j.ID() != "job-2" {
		t.Fatalf("resumed job %s, want job-2", j.ID())
	}
	if _, err := s.Job("job-1"); err != nil {
		t.Fatalf("restored job: %v", err)
	}
	if _, err := e.Pipeline("pipe-1"); err != nil {
		t.Fatalf("restored pipeline: %v", err)
	}
	<-rec.Jobs[0].Done()
	if st := waitPipeline(t, rec.Pipelines[0]); st.State != PipelineCompleted || rec.Jobs[0].State() != sched.StateCompleted {
		t.Fatalf("resumed pipeline %s, resumed job %s; want both completed", st.State, rec.Jobs[0].State())
	}
	if rec := e.Recover(nil, nil, nil); len(rec.Jobs)+len(rec.Pipelines)+len(rec.Lost) != 0 {
		t.Fatalf("nil state recovered %+v", rec)
	}
}

// --- Telemetry --------------------------------------------------------

func TestFlowTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, _ := newTestEngine(t, Config{Registry: reg})
	p, err := e.Submit(context.Background(), fanoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitPipeline(t, p)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hyperhet_flow_pipelines_submitted_total 1`,
		`hyperhet_flow_pipelines_finished_total{state="completed"} 1`,
		`hyperhet_flow_stage_outcomes_total{outcome="completed"} 6`,
		`hyperhet_flow_pipelines_active 0`,
		`hyperhet_flow_stages_running 0`,
		`hyperhet_flow_stage_cache_total{result="miss"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(out, `hyperhet_flow_stage_seconds_count{kind="analyze"} 4`) {
		t.Errorf("stage latency histogram missing analyze observations:\n%s", grepLines(out, "stage_seconds_count"))
	}
}

func grepLines(s, sub string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Synthesis returns the output of the named synthesize stage of a
// completed pipeline (nil when absent or not completed).
func (p *Pipeline) Synthesis(stageName string) *Synthesis {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.stage(stageName); st != nil {
		return st.synthesis
	}
	return nil
}

// stage returns the named stage, nil if the pipeline has none.
func (p *Pipeline) stage(name string) *stage {
	for _, st := range p.stages {
		if st.spec.Name == name {
			return st
		}
	}
	return nil
}
