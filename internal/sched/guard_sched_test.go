package sched

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
)

// guardedConfig builds a scheduler config with the guard pinned to a
// fixed limit so admission decisions are deterministic in tests.
func pinnedGuard(limit int) *guard.Controller {
	return guard.New(guard.Config{
		Limiter: guard.LimiterConfig{Initial: limit, Min: limit, Max: limit},
	})
}

// The shed error type maps onto the sentinels and carries a usable
// Retry-After hint for every admission-failure class.
func TestShedErrorSemantics(t *testing.T) {
	se := &ShedError{Reason: guard.ReasonLimit, RetryAfter: 250 * time.Millisecond}
	if !errors.Is(se, ErrShed) {
		t.Fatal("limit shed does not match ErrShed")
	}
	if errors.Is(se, ErrQueueFull) {
		t.Fatal("limit shed matches ErrQueueFull")
	}
	if d, ok := RetryAfterHint(se); !ok || d != 250*time.Millisecond {
		t.Fatalf("hint(shed) = %v/%v, want 250ms/true", d, ok)
	}
	if d, ok := RetryAfterHint(ErrQueueFull); !ok || d <= 0 {
		t.Fatalf("hint(queue-full) = %v/%v, want positive default", d, ok)
	}
	if d, ok := RetryAfterHint(ErrClosed); !ok || d <= 0 {
		t.Fatalf("hint(closed) = %v/%v, want positive default", d, ok)
	}
	if _, ok := RetryAfterHint(errors.New("unrelated")); ok {
		t.Fatal("unrelated error produced a hint")
	}
}

// Queued jobs whose deadline passes before dispatch are settled by the
// lazy-expiry path: counted, never handed to a worker, and auditable as
// such in the job document.
func TestGuardExpiredNeverDispatched(t *testing.T) {
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

// The synthetic overload burst: a 4x-queue-depth storm against a pinned
// admission limit. Batch sheds at 0.75x the limit and Interactive at the
// full limit, and priority dispatch drains Interactive first — so the
// Interactive class's success rate AND p99 latency must strictly
// dominate Batch's, while the shed counters balance the arithmetic.
func TestGuardOverloadBurstInteractiveDominatesBatch(t *testing.T) {
	const limit = 12
	s := New(Config{Workers: 1, QueueDepth: 256, Guard: pinnedGuard(limit)})
	defer s.Close()
	release := setGate(s)
	defer release()

	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blockSpec.Priority = Interactive
	blocker, err := s.Submit(context.Background(), blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	const perClass = 24 // 48 total: a 4x burst against the limit of 12
	type sub struct {
		job *Job
		err error
	}
	storm := map[Priority][]sub{}
	for i := 0; i < 2*perClass; i++ {
		spec := tinySpec(t)
		spec.NoCache = true
		spec.Priority = Batch
		if i%2 == 1 {
			spec.Priority = Interactive
		}
		j, err := s.Submit(context.Background(), spec)
		storm[spec.Priority] = append(storm[spec.Priority], sub{j, err})
		if err != nil && !errors.Is(err, ErrShed) {
			t.Fatalf("submit %d failed with a non-shed error: %v", i, err)
		}
	}
	release()

	admitted, shed := map[Priority]int{}, map[Priority]int{}
	latencies := map[Priority][]time.Duration{}
	for class, subs := range storm {
		for _, su := range subs {
			if su.err != nil {
				shed[class]++
				continue
			}
			admitted[class]++
			if _, err := s.Wait(context.Background(), su.job.ID()); err != nil {
				t.Fatal(err)
			}
			if su.job.State() != StateCompleted {
				t.Fatalf("admitted %s job %s settled as %s (err %v)",
					class, su.job.ID(), su.job.State(), su.job.Err())
			}
			st := su.job.Status()
			latencies[class] = append(latencies[class], st.Finished.Sub(st.Submitted))
		}
	}

	// Success rate: every admitted job completed, so the rates reduce to
	// admission counts — Interactive must strictly dominate.
	if admitted[Interactive] <= admitted[Batch] {
		t.Fatalf("interactive admitted %d <= batch admitted %d under overload",
			admitted[Interactive], admitted[Batch])
	}
	if shed[Batch] <= shed[Interactive] {
		t.Fatalf("batch shed %d <= interactive shed %d: batch must shed first",
			shed[Batch], shed[Interactive])
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*99)/100]
	}
	if len(latencies[Interactive]) == 0 || len(latencies[Batch]) == 0 {
		t.Fatal("a class completed no jobs; the burst did not exercise both")
	}
	if pi, pb := p99(latencies[Interactive]), p99(latencies[Batch]); pi >= pb {
		t.Fatalf("interactive p99 %v >= batch p99 %v under overload", pi, pb)
	}

	// Shed counters balance: submitted - admitted == shed, per the stats.
	st := s.Stats()
	wantShed := uint64(shed[Batch] + shed[Interactive])
	if st.Shed != wantShed || st.Rejected != wantShed {
		t.Fatalf("stats shed=%d rejected=%d, want both %d", st.Shed, st.Rejected, wantShed)
	}
	wantAdmitted := uint64(admitted[Batch] + admitted[Interactive] + 1) // + blocker
	if st.Submitted != wantAdmitted {
		t.Fatalf("stats.Submitted = %d, want %d", st.Submitted, wantAdmitted)
	}
	if _, err := s.Wait(context.Background(), blocker.ID()); err != nil {
		t.Fatal(err)
	}
}

// The job document carries queue_ms and deadline_remaining_ms so expiry
// and shed decisions are auditable after the fact.
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

// TestGuardStressScheduler hammers a tight guard through the scheduler
// from many goroutines mixing clean jobs, permanent-crash fault jobs,
// deadline-doomed jobs and explicit cancellations. The CI -race step
// runs it with GOMAXPROCS=8; here it asserts the ledger invariants:
// every admission settles, counters balance, and no expired job ever
// ran.
func TestGuardStressScheduler(t *testing.T) {
	s := New(Config{
		Workers:    4,
		QueueDepth: 32,
		Guard: guard.New(guard.Config{
			Limiter: guard.LimiterConfig{Initial: 16, Min: 4, Max: 64},
		}),
	})
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
					if !errors.Is(err, ErrShed) && !errors.Is(err, ErrQueueFull) {
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
	t.Logf("admitted=%d rejected=%d shed=%d expired=%d",
		st.Submitted, st.Rejected, st.Shed, st.Expired)
}
