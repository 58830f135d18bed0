package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/scene"
)

// Shared test scenes, generated once.
var (
	testSceneOnce sync.Once
	testTinyScene *scene.Scene // fast sequential jobs
	testBigScene  *scene.Scene // a run long enough to cancel mid-flight
)

func testScenes(t testing.TB) (tiny, big *scene.Scene) {
	t.Helper()
	testSceneOnce.Do(func() {
		var err error
		testTinyScene, err = scene.Generate(scene.Config{Lines: 24, Samples: 16, Bands: 8, Seed: 3})
		if err != nil {
			panic(err)
		}
		testBigScene, err = scene.Generate(scene.Config{Lines: 192, Samples: 96, Bands: 48, Seed: 3})
		if err != nil {
			panic(err)
		}
	})
	return testTinyScene, testBigScene
}

// tinySpec is a quick sequential job on the tiny scene.
func tinySpec(t testing.TB) JobSpec {
	tiny, _ := testScenes(t)
	return JobSpec{
		Mode:       ModeSequential,
		Algorithm:  core.ATDCA,
		Cube:       tiny.Cube,
		CubeDigest: CubeDigest(tiny.Cube),
		// The tiny scene has 8 bands; the default t=18 would degenerate.
		Params: core.Params{Targets: 4},
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.State(), want)
}

// setGate installs an OnJobRunning hook that parks any job labelled
// "blocker" until the returned release function is called. Call it before
// the first submit: workers read the hook only after dequeuing a job.
func setGate(s *Scheduler) (release func()) {
	gate := make(chan struct{})
	s.mu.Lock()
	s.cfg.OnJobRunning = func(j *Job) {
		if j.spec.Label == "blocker" {
			<-gate
		}
	}
	s.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestSubmitAndComplete(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	j, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCompleted {
		t.Fatalf("state = %s, want completed (err=%v)", j.State(), j.Err())
	}
	if j.Report() == nil || len(j.Report().Detection.Targets) == 0 {
		t.Fatal("completed detection job has no targets")
	}
	st := s.Stats()
	if st.Completed != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v, want 1 submitted / 1 completed", st)
	}
	if st.VirtualSeconds <= 0 {
		t.Fatalf("virtual seconds = %v, want > 0", st.VirtualSeconds)
	}
}

func TestBackpressureRejectsWhenFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	release := setGate(s)
	defer release()

	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blocker, err := s.Submit(context.Background(), blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning) // out of the queue, parked on the gate

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), tinySpec(t))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(context.Background(), tinySpec(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Queued != 2 {
		t.Fatalf("stats = %+v, want 1 rejected / 2 queued", st)
	}

	release()
	for _, j := range append(queued, blocker) {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		if j.State() != StateCompleted {
			t.Fatalf("job %s state = %s, want completed (err=%v)", j.ID(), j.State(), j.Err())
		}
	}
}

func TestPriorityOrderingUnderContention(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, CacheEntries: -1})
	defer s.Close()
	release := setGate(s)
	defer release()

	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blocker, err := s.Submit(context.Background(), blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	var batch, interactive []*Job
	for i := 0; i < 3; i++ {
		spec := tinySpec(t)
		spec.Priority = Batch
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, j)
	}
	for i := 0; i < 2; i++ {
		spec := tinySpec(t)
		spec.Priority = Interactive
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		interactive = append(interactive, j)
	}

	release()
	for _, j := range append(append([]*Job{blocker}, batch...), interactive...) {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	// With one worker, dispatch order equals start-time order: every
	// interactive job must have started before every batch job even
	// though all batch jobs were submitted first.
	for _, ij := range interactive {
		for _, bj := range batch {
			if is, bs := ij.Status().Started, bj.Status().Started; !is.Before(bs) {
				t.Fatalf("interactive %s started %v, after batch %s at %v", ij.ID(), is, bj.ID(), bs)
			}
		}
	}
}

func TestDeadlineExpiredWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	release := setGate(s)
	defer release()

	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blocker, err := s.Submit(context.Background(), blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	spec := tinySpec(t)
	spec.Timeout = 20 * time.Millisecond
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The queue watcher must settle the expired job even though the only
	// worker is still parked on the blocker.
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State())
	}
	if !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", j.Err())
	}
	// The expired job must have left the queue (capacity freed).
	if st := s.Stats(); st.Queued != 0 || st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want 0 queued / 1 cancelled", st)
	}
	release()
	waitState(t, blocker, StateCompleted)
}

// The acceptance-criterion test: cancelling a running job aborts its
// in-flight simulation and frees the worker slot for the next job.
func TestCancelRunningJobFreesWorkerSlot(t *testing.T) {
	_, big := testScenes(t)
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer s.Close()

	// A run that takes hundreds of milliseconds of real time.
	long, err := s.Submit(context.Background(), JobSpec{
		Mode:      ModeRun,
		Algorithm: core.MORPH,
		Network:   platform.FullyHeterogeneous(),
		Cube:      big.Cube,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	cancelled := time.Now()
	long.Cancel()
	if _, err := s.Wait(context.Background(), long.ID()); err != nil {
		t.Fatal(err)
	}
	settle := time.Since(cancelled)
	if long.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled (err=%v)", long.State(), long.Err())
	}
	if !errors.Is(long.Err(), context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", long.Err())
	}
	// "Promptly": the abort must not have waited out the full run.
	if settle > 2*time.Second {
		t.Fatalf("cancellation took %v to settle", settle)
	}

	// The single worker slot must now be free: a follow-up job completes.
	next, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), next.ID()); err != nil {
		t.Fatal(err)
	}
	if next.State() != StateCompleted {
		t.Fatalf("follow-up job state = %s, want completed (err=%v)", next.State(), next.Err())
	}
}

func TestResultCacheHit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 16})
	defer s.Close()
	spec := tinySpec(t)

	first, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), first.ID()); err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), second.ID()); err != nil {
		t.Fatal(err)
	}
	if !second.FromCache() {
		t.Fatal("identical resubmission missed the result cache")
	}
	if second.Report() != first.Report() {
		t.Fatal("cache hit returned a different report")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMiss != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// A different parameterization must miss.
	spec.Params.Targets = 5
	third, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), third.ID()); err != nil {
		t.Fatal(err)
	}
	if third.FromCache() {
		t.Fatal("different params wrongly hit the cache")
	}
}

func TestSubmitValidation(t *testing.T) {
	tiny, _ := testScenes(t)
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"nil cube", JobSpec{Mode: ModeSequential, Algorithm: core.ATDCA}},
		{"no network", JobSpec{Mode: ModeRun, Algorithm: core.ATDCA, Cube: tiny.Cube}},
		{"bad mode", JobSpec{Mode: "warp", Algorithm: core.ATDCA, Cube: tiny.Cube}},
		{"bad algorithm", JobSpec{Mode: ModeSequential, Algorithm: "FFT", Cube: tiny.Cube}},
		{"bad priority", JobSpec{Mode: ModeSequential, Algorithm: core.ATDCA, Cube: tiny.Cube, Priority: 7}},
		{"negative timeout", JobSpec{Mode: ModeSequential, Algorithm: core.ATDCA, Cube: tiny.Cube, Timeout: -time.Second}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(context.Background(), tc.spec); err == nil {
			t.Errorf("%s: submit accepted an invalid spec", tc.name)
		}
	}
}

func TestCloseCancelsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	release := setGate(s)
	defer release()

	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blocker, err := s.Submit(context.Background(), blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	queued, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		release()
	}()
	s.Close()
	if queued.State() != StateCancelled || !errors.Is(queued.Err(), ErrClosed) {
		t.Fatalf("queued job after Close: state=%s err=%v", queued.State(), queued.Err())
	}
	if _, err := s.Submit(context.Background(), tinySpec(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close error = %v, want ErrClosed", err)
	}
}

// TestConcurrentSubmitStress hammers the scheduler from many goroutines
// with mixed priorities, cancellations and cache hits; run under -race.
func TestConcurrentSubmitStress(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 256, CacheEntries: 8})
	defer s.Close()
	base := tinySpec(t)

	const producers = 8
	const perProducer = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*Job
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				spec := base
				spec.Priority = Priority((p + i) % 2)
				// A few distinct parameterizations so the cache sees
				// both hits and misses.
				spec.Params.Targets = 3 + (i % 4)
				spec.Label = fmt.Sprintf("p%d-%d", p, i)
				j, err := s.Submit(context.Background(), spec)
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					j.Cancel()
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	var completed, cancelled int
	for _, j := range jobs {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		switch j.State() {
		case StateCompleted:
			completed++
		case StateCancelled:
			cancelled++
		default:
			t.Fatalf("job %s settled as %s (err=%v)", j.ID(), j.State(), j.Err())
		}
	}
	st := s.Stats()
	if st.Failed != 0 {
		t.Fatalf("stats = %+v, want no failures", st)
	}
	if int(st.Completed) != completed || int(st.Cancelled) != cancelled {
		t.Fatalf("stats %+v disagree with observed %d completed / %d cancelled", st, completed, cancelled)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v, want drained gauges", st)
	}
}

// The Adaptive variant is a plain ModeRun job whose trace rides its one
// report through every layer: the live job, the journal's finished record
// (which holds that report once) and a job restored from the journal,
// whose result re-seeds the cache.
func TestAdaptiveVariant(t *testing.T) {
	tiny, _ := testScenes(t)
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Journal: jl})
	spec := JobSpec{
		Algorithm:  core.ATDCA,
		Variant:    core.Adaptive,
		Network:    platform.FullyHeterogeneous(),
		Cube:       tiny.Cube,
		CubeDigest: CubeDigest(tiny.Cube),
		Params:     core.Params{Targets: 4},
	}
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != StateCompleted {
		t.Fatalf("state = %s, want completed (err=%v)", j.State(), j.Err())
	}
	trace := j.Report().Adaptive
	if trace == nil || len(trace.Imbalance) != spec.Params.Targets {
		t.Fatalf("adaptive job trace = %+v, want one imbalance entry per detection round", trace)
	}
	if st := j.Status(); st.Mode != ModeRun || st.Algorithm != "ATDCA" || st.Variant != "Adaptive" {
		t.Fatalf("status reads mode %s, %s/%s; want run, ATDCA/Adaptive", st.Mode, st.Algorithm, st.Variant)
	}
	s.Close()
	jl.Close()

	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte(`"WallTime"`)); n != 1 {
		t.Fatalf("journal holds %d run reports, want the finished record's one", n)
	}
	jobs, err := replayJobs(dir)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("replayed %d jobs (err %v), want 1", len(jobs), err)
	}
	s2 := New(Config{Workers: 1})
	defer s2.Close()
	restored, err := s2.RestoreFinished(jobs[0], spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Report().Adaptive; !reflect.DeepEqual(got, trace) {
		t.Fatalf("restored trace = %+v, want the live %+v", got, trace)
	}
	rerun, err := s2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-rerun.Done()
	if !rerun.FromCache() || !reflect.DeepEqual(rerun.Report().Adaptive, trace) {
		t.Fatalf("resubmission: from cache %v, trace %+v; want a cache hit with the live trace", rerun.FromCache(), rerun.Report().Adaptive)
	}
}

// core.RunContext ignores the balance policy for the Adaptive variant, so
// an Adaptive job asking for balance is the same job as one that does not,
// and it completes from the other's cache entry.
func TestAdaptiveBalanceHitsCache(t *testing.T) {
	tiny, _ := testScenes(t)
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := JobSpec{
		Algorithm:  core.ATDCA,
		Variant:    core.Adaptive,
		Network:    platform.FullyHeterogeneous(),
		Cube:       tiny.Cube,
		CubeDigest: CubeDigest(tiny.Cube),
		Params:     core.Params{Targets: 4},
	}
	if j := runToEnd(t, s, spec); j.State() != StateCompleted || j.FromCache() {
		t.Fatalf("first run: state %s, from cache %v; want a completed miss", j.State(), j.FromCache())
	}
	spec.Balance = true
	if j := runToEnd(t, s, spec); j.State() != StateCompleted || !j.FromCache() {
		t.Fatalf("with balance: state %s, from cache %v; want a completed hit", j.State(), j.FromCache())
	}
}

// A finished record written before the trace moved onto the report carries
// the report twice, once under a legacy "adaptive" key. It still restores
// as a completed job with its report.
func TestRestoreLegacyAdaptiveRecord(t *testing.T) {
	rep := core.RunReport{Algorithm: core.ATDCA, Variant: core.Adaptive, Network: "fully-het", WallTime: 2.5, Attempts: 1}
	trace := &algo.AdaptiveTrace{Imbalance: []float64{3.1, 1.1}, Rebalanced: []bool{true, false}, MovedRows: []int{9, 0}}
	legacy, err := json.Marshal(struct {
		core.RunReport
		Trace *algo.AdaptiveTrace
	}{rep, trace})
	if err != nil {
		t.Fatal(err)
	}
	finished, err := json.Marshal(map[string]any{
		"v": recordVersion, "type": recFinished, "job": "job-4", "time": time.Now().UTC(),
		"state": string(StateCompleted), "report": json.RawMessage(marshalReport(&rep)),
		"adaptive": json.RawMessage(legacy),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(Record{Type: recSubmitted, Job: "job-4", Request: json.RawMessage(`{"mode":"adaptive"}`)})
	jl.Close()
	appendRaw(t, dir, finished)

	jobs, err := replayJobs(dir)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("replayed %d jobs (err %v), want 1", len(jobs), err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.RestoreFinished(jobs[0], JobSpec{Algorithm: core.ATDCA, Variant: core.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCompleted || j.Report() == nil || !reflect.DeepEqual(*j.Report(), rep) {
		t.Fatalf("legacy record restored as %s with report %+v, want completed with %+v", j.State(), j.Report(), rep)
	}
}

// Submit asks core which algorithms a variant runs: Adaptive with anything
// but ATDCA is refused at admission, not on a worker.
func TestSubmitRefusesAdaptiveWithoutATDCA(t *testing.T) {
	tiny, _ := testScenes(t)
	s := New(Config{Workers: 1})
	defer s.Close()
	_, err := s.Submit(context.Background(), JobSpec{
		Algorithm: core.PCT,
		Variant:   core.Adaptive,
		Network:   platform.FullyHeterogeneous(),
		Cube:      tiny.Cube,
	})
	if err == nil || !strings.Contains(err.Error(), "ATDCA only") {
		t.Fatalf("Submit(PCT/Adaptive) = %v, want the ATDCA-only refusal", err)
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("refused spec counted as submitted: %+v", st)
	}
}

// A journaled job starts with its first started record: the job's start
// and its first attempt's are one time, never before the record's.
func TestStartedFollowsStartedRecord(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})
	j, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	s.Close()
	jl.Close()
	started := j.Status().Started
	if a := j.Attempts(); len(a) != 1 || !a[0].Started.Equal(started) {
		t.Fatalf("attempts %+v, want one that starts with the job at %v", a, started)
	}
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type == recStarted && rec.Job == j.ID() {
			if started.Before(rec.Time) {
				t.Fatalf("job started at %v, before its started record at %v", started, rec.Time)
			}
			return
		}
	}
	t.Fatalf("no started record for %s in %d records", j.ID(), len(recs))
}

func TestWaitRespectsContext(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	release := setGate(s)
	defer release()
	spec := tinySpec(t)
	spec.Label = "blocker"
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, j.ID()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait error = %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.Wait(context.Background(), "job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait on unknown job error = %v, want ErrUnknownJob", err)
	}
}

// Attempts returns the job's execution-attempt history so far (empty for
// cache hits and jobs that never ran).
func (j *Job) Attempts() []AttemptRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]AttemptRecord(nil), j.attempts...)
}

// Wait blocks until the job settles (returning the job) or ctx is done
// (returning ctx's error).
func (s *Scheduler) Wait(ctx context.Context, id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
