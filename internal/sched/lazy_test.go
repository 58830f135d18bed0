package sched

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/scene"
)

// lazySpec strips spec's cube down to a handle, counting materializations.
func lazySpec(spec JobSpec, calls *atomic.Int32) JobSpec {
	c := spec.Cube
	spec.Cube = nil
	spec.Materialize = func(context.Context) (*cube.Cube, error) {
		calls.Add(1)
		return c, nil
	}
	return spec
}

func runToEnd(t *testing.T, s *Scheduler, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	return j
}

func reportJSON(t *testing.T, j *Job) string {
	t.Helper()
	if j.State() != StateCompleted {
		t.Fatalf("job %s settled as %s (err %v)", j.ID(), j.State(), j.Err())
	}
	raw, err := json.Marshal(j.Report())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestLazyCubeMissMaterializesOnceAndMatchesEager(t *testing.T) {
	eager := New(Config{Workers: 1})
	defer eager.Close()
	want := reportJSON(t, runToEnd(t, eager, tinySpec(t)))

	s := New(Config{Workers: 1})
	defer s.Close()
	var calls atomic.Int32
	j := runToEnd(t, s, lazySpec(tinySpec(t), &calls))
	if got := reportJSON(t, j); got != want {
		t.Fatalf("lazy report differs from eager:\n%s\nvs\n%s", got, want)
	}
	if j.FromCache() || calls.Load() != 1 {
		t.Fatalf("first run: fromCache=%v materialized %d times, want a real run on 1", j.FromCache(), calls.Load())
	}
	// The repeat is a result-cache hit: no cube is built for it.
	j = runToEnd(t, s, lazySpec(tinySpec(t), &calls))
	if !j.FromCache() || calls.Load() != 1 {
		t.Fatalf("repeat: fromCache=%v materialized %d times, want a hit and still 1", j.FromCache(), calls.Load())
	}
	if got := reportJSON(t, j); got != want {
		t.Fatalf("cached report differs from eager:\n%s\nvs\n%s", got, want)
	}
}

// A result present at admission but evicted before dispatch must not
// strand a lazy job: the worker misses, builds the cube and runs.
func TestLazyCubeResultEvictedBetweenAdmitAndDispatch(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 1})
	defer s.Close()
	release := setGate(s)
	defer release()

	want := reportJSON(t, runToEnd(t, s, tinySpec(t))) // primes the one cache slot

	blocker := tinySpec(t)
	blocker.Label, blocker.NoCache = "blocker", true
	bj, err := s.Submit(context.Background(), blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bj, StateRunning)

	var calls atomic.Int32
	lazy, err := s.Submit(context.Background(), lazySpec(tinySpec(t), &calls))
	if err != nil {
		t.Fatal(err)
	}
	// An interactive job on another key overtakes the queued lazy job and
	// takes the single cache slot.
	evictor := tinySpec(t)
	evictor.Params.Targets, evictor.Priority = 3, Interactive
	ej, err := s.Submit(context.Background(), evictor)
	if err != nil {
		t.Fatal(err)
	}
	release()
	<-ej.Done()
	<-lazy.Done()
	if got := reportJSON(t, lazy); got != want {
		t.Fatalf("report after eviction differs from the eager run:\n%s\nvs\n%s", got, want)
	}
	if lazy.FromCache() || calls.Load() != 1 {
		t.Fatalf("fromCache=%v materialized %d times, want a real run on 1", lazy.FromCache(), calls.Load())
	}
}

// A retried job builds its cube once: the attempt loop reuses the one
// materialization instead of calling Materialize per attempt.
func TestLazyCubeRetriedJobMaterializesOnce(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var calls atomic.Int32
	j := runToEnd(t, s, lazySpec(faultSpec(t, 1, 3), &calls))
	if j.State() != StateCompleted || len(j.Attempts()) != 2 {
		t.Fatalf("state %s after %d attempts (err %v), want completed after 2", j.State(), len(j.Attempts()), j.Err())
	}
	if calls.Load() != 1 {
		t.Fatalf("materialized %d times across the retry, want 1", calls.Load())
	}
}

// Jobs that settle without running — refused at admission, or cancelled
// while queued — never build their cube.
func TestLazyCubeRefusedAndQueuedDeathsNeverMaterialize(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := setGate(s)
	defer release()

	blocker := tinySpec(t)
	blocker.Label, blocker.NoCache = "blocker", true
	bj, err := s.Submit(context.Background(), blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bj, StateRunning)

	var calls atomic.Int32
	queued, err := s.Submit(context.Background(), lazySpec(tinySpec(t), &calls))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), lazySpec(tinySpec(t), &calls)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue = %v, want ErrQueueFull", err)
	}
	queued.Cancel()
	<-queued.Done()
	if queued.State() != StateCancelled || calls.Load() != 0 {
		t.Fatalf("state %s, materialized %d times, want cancelled and 0", queued.State(), calls.Load())
	}
}

func TestLazyCubeWithoutDigestRunsUncached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var calls atomic.Int32
	spec := lazySpec(tinySpec(t), &calls)
	spec.CubeDigest = ""
	for i := 1; i <= 2; i++ {
		if j := runToEnd(t, s, spec); j.State() != StateCompleted || j.FromCache() {
			t.Fatalf("run %d: state %s fromCache=%v, want a completed real run", i, j.State(), j.FromCache())
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("materialized %d times, want 2", calls.Load())
	}
	if _, err := s.Submit(context.Background(), JobSpec{Mode: ModeSequential, Algorithm: core.ATDCA}); err == nil {
		t.Fatal("a spec with neither cube nor Materialize was admitted")
	}
}

func TestLazyCubeMaterializeErrorFailsTheJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec(t)
	spec.Cube = nil
	spec.Materialize = func(context.Context) (*cube.Cube, error) { return nil, errors.New("disk on fire") }
	j := runToEnd(t, s, spec)
	if j.State() != StateFailed || !strings.Contains(j.Err().Error(), "materializing cube: disk on fire") {
		t.Fatalf("state %s err %v, want failed on the materialize error", j.State(), j.Err())
	}
	if st := s.Stats(); st.Running != 0 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 0 running / 1 failed", st)
	}
}

// A resumed lazy job re-derives its cache key from the digest its
// journaled key leads with, so replay builds no scene to hash.
func TestLazyCubeResumedJobTakesDigestFromJournaledKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	first := runToEnd(t, s, tinySpec(t))
	want := reportJSON(t, first)

	var calls atomic.Int32
	spec := lazySpec(tinySpec(t), &calls)
	spec.CubeDigest = ""
	j, err := s.SubmitResumed(context.Background(), &JournalJob{ID: "job-41", CacheKey: first.cacheKey}, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := reportJSON(t, j); got != want || !j.FromCache() || calls.Load() != 0 {
		t.Fatalf("resumed job: fromCache=%v materialized %d times, report match %v; want a hit on the journaled key",
			j.FromCache(), calls.Load(), got == want)
	}
}

// Spec is read by other goroutines (sim hooks, tests) while the worker
// settles the job; the release at settle must not race it.
func TestSettleReleasesCube(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var calls atomic.Int32
	for _, spec := range []JobSpec{tinySpec(t), lazySpec(tinySpec(t), &calls)} {
		spec.NoCache = true
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		read := make(chan struct{})
		go func() {
			defer close(read)
			for {
				select {
				case <-stop:
					return
				default:
					_ = j.Spec().Label
				}
			}
		}()
		<-j.Done()
		close(stop)
		<-read
		if sp := j.Spec(); sp.Cube != nil || sp.Materialize != nil {
			t.Fatalf("settled job %s still holds its cube (Cube=%v, Materialize set=%v)", j.ID(), sp.Cube != nil, sp.Materialize != nil)
		}
		if j.State() != StateCompleted || j.Report() == nil {
			t.Fatalf("settled job %s: state %s, report %v", j.ID(), j.State(), j.Report())
		}
	}
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// Retention costs reports, not scenes: N retained jobs over N distinct
// 3.5 MB cubes leave the heap within a few MB of where it started.
func TestSettleReleasesCubeHeap(t *testing.T) {
	const n = 8
	s := New(Config{Workers: 2})
	defer s.Close()
	sc, err := scene.Generate(scene.Config{Lines: 144, Samples: 96, Bands: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := heapMB()
	jobs := make([]*Job, n)
	for i := range jobs {
		c := &cube.Cube{Lines: sc.Cube.Lines, Samples: sc.Cube.Samples, Bands: sc.Cube.Bands,
			Data: slices.Clone(sc.Cube.Data)} // a distinct 3.5 MB allocation per job
		jobs[i] = runToEnd(t, s, JobSpec{
			Mode: ModeSequential, Algorithm: core.ATDCA, Cube: c,
			Params: core.Params{Targets: 2}, NoCache: true,
		})
	}
	grown := heapMB() - before
	for _, j := range jobs {
		if j.State() != StateCompleted || j.Report() == nil {
			t.Fatalf("job %s: state %s (err %v)", j.ID(), j.State(), j.Err())
		}
	}
	if grown > 4 {
		t.Fatalf("heap grew %.1f MB over %d retained jobs; the cubes alone are %.1f MB, so they are still pinned",
			grown, n, n*3.5)
	}
}
