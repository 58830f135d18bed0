package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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
			if !ij.startedAtTime().Before(bj.startedAtTime()) {
				t.Fatalf("interactive %s started %v, after batch %s at %v",
					ij.ID(), ij.startedAtTime(), bj.ID(), bj.startedAtTime())
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

func TestAdaptiveMode(t *testing.T) {
	tiny, _ := testScenes(t)
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	j, err := s.Submit(context.Background(), JobSpec{
		Mode:    ModeAdaptive,
		Network: platform.FullyHeterogeneous(),
		Cube:    tiny.Cube,
		Params:  core.Params{Targets: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCompleted {
		t.Fatalf("state = %s, want completed (err=%v)", j.State(), j.Err())
	}
	if j.AdaptiveReport() == nil || j.AdaptiveReport().Trace == nil {
		t.Fatal("adaptive job has no convergence trace")
	}
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
