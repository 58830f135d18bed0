package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Queued jobs whose deadline passes before dispatch are settled by the
// lazy-expiry path: counted, never handed to a worker, and auditable as
// such in the job document.
func TestExpiredNeverDispatched(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
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

	var doomed []*Job
	for i := 0; i < 3; i++ {
		spec := tinySpec(t)
		spec.Timeout = 20 * time.Millisecond
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, j)
	}
	for _, j := range doomed {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		if st := j.State(); st != StateCancelled {
			t.Fatalf("expired job %s settled as %s", j.ID(), st)
		}
		if !errors.Is(j.Err(), context.DeadlineExceeded) {
			t.Fatalf("expired job error = %v, want deadline cause", j.Err())
		}
		if !strings.Contains(j.Err().Error(), "expired while queued") {
			t.Fatalf("expired job error = %v, want the expiry message", j.Err())
		}
		status := j.Status()
		if !status.Started.IsZero() || status.Attempts != 0 {
			t.Fatalf("expired job %s was dispatched: %+v", j.ID(), status)
		}
		if status.DeadlineRemainingMS == nil || *status.DeadlineRemainingMS > 0 {
			t.Fatalf("expired job deadline_remaining_ms = %v, want <= 0", status.DeadlineRemainingMS)
		}
	}
	if st := s.Stats(); st.Expired != 3 {
		t.Fatalf("stats.Expired = %d, want 3", st.Expired)
	}
	release()
	if _, err := s.Wait(context.Background(), blocker.ID()); err != nil {
		t.Fatal(err)
	}
}

// The job document carries queue_ms and deadline_remaining_ms so expiry
// decisions are auditable after the fact.
func TestJobStatusQueueAndDeadlineFields(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
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
	spec.Timeout = time.Hour
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	st := j.Status()
	if st.QueueMS < 10 {
		t.Fatalf("queued job queue_ms = %d, want >= 10", st.QueueMS)
	}
	if st.DeadlineRemainingMS == nil {
		t.Fatal("deadline-carrying job has no deadline_remaining_ms")
	}
	if rem := *st.DeadlineRemainingMS; rem <= 0 || rem > time.Hour.Milliseconds() {
		t.Fatalf("deadline_remaining_ms = %d, want within (0, 1h]", rem)
	}

	// No-deadline jobs omit the field entirely.
	free, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if free.Status().DeadlineRemainingMS != nil {
		t.Fatal("deadline-less job reports deadline_remaining_ms")
	}

	release()
	for _, jb := range []*Job{blocker, j, free} {
		if _, err := s.Wait(context.Background(), jb.ID()); err != nil {
			t.Fatal(err)
		}
	}
	// Settled: queue_ms freezes at the dispatch wait, and the remaining
	// budget freezes at settlement (still positive for a finished job).
	done := j.Status()
	if done.QueueMS < 10 {
		t.Fatalf("settled queue_ms = %d, want the recorded wait", done.QueueMS)
	}
	if done.DeadlineRemainingMS == nil || *done.DeadlineRemainingMS <= 0 {
		t.Fatalf("settled deadline_remaining_ms = %v, want positive frozen budget", done.DeadlineRemainingMS)
	}
}

// TestSchedulerStress hammers a small queue from many goroutines mixing
// clean jobs, permanent-crash fault jobs, deadline-doomed jobs and
// explicit cancellations; the queue is shallow enough that submissions
// also meet queue-full rejections. The CI -race steps run it with
// GOMAXPROCS=8 and alone at GOMAXPROCS=2; here it asserts the ledger
// invariants: every admission settles, counters balance, and no expired
// job ever ran.
func TestSchedulerStress(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Close()

	const goroutines = 8
	const iters = 25
	var rejected atomic.Int64
	var jobsMu sync.Mutex
	var jobs []*Job
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var spec JobSpec
				switch (g + i) % 4 {
				case 0: // clean batch work
					spec = tinySpec(t)
					spec.NoCache = true
				case 1: // permanent crash: settles failed
					spec = faultSpec(t, -1, 1)
				case 2: // doomed deadline: expires behind the queue
					spec = tinySpec(t)
					spec.NoCache = true
					spec.Timeout = time.Duration(1+i%3) * time.Millisecond
				default: // interactive, sometimes cancelled
					spec = tinySpec(t)
					spec.NoCache = true
					spec.Priority = Interactive
				}
				j, err := s.Submit(context.Background(), spec)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("unexpected admission error: %v", err)
						return
					}
					rejected.Add(1)
					continue
				}
				if (g+i)%7 == 0 {
					j.Cancel()
				}
				jobsMu.Lock()
				jobs = append(jobs, j)
				jobsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	for _, j := range jobs {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		// The core invariant: a job that expired in queue never ran.
		if err := j.Err(); err != nil && strings.Contains(err.Error(), "expired while queued") {
			if st := j.Status(); !st.Started.IsZero() || st.Attempts != 0 {
				t.Fatalf("expired job %s was dispatched: %+v", j.ID(), st)
			}
		}
	}

	st := s.Stats()
	if st.Submitted != uint64(len(jobs)) {
		t.Fatalf("stats.Submitted = %d, want %d admissions", st.Submitted, len(jobs))
	}
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("stats.Rejected = %d, want %d observed rejections", st.Rejected, rejected.Load())
	}
	if st.Submitted+st.Rejected != goroutines*iters {
		t.Fatalf("admitted %d + rejected %d != %d submissions", st.Submitted, st.Rejected, goroutines*iters)
	}
	if got := st.Completed + st.Failed + st.Cancelled; got != st.Submitted {
		t.Fatalf("settled %d != submitted %d", got, st.Submitted)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("non-idle after drain: %+v", st)
	}
	if st.Expired > st.Cancelled {
		t.Fatalf("expired %d > cancelled %d", st.Expired, st.Cancelled)
	}
	t.Logf("admitted=%d rejected=%d expired=%d", st.Submitted, st.Rejected, st.Expired)
}
