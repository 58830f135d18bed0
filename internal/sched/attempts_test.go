package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// retryNet builds a small heterogeneous network for fault jobs.
func retryNet(t testing.TB, p int) *platform.Network {
	t.Helper()
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: 0.005 * float64(1+i%2), MemoryMB: 2048}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 15
			}
		}
	}
	net, err := platform.New("retry-net", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// faultSpec is a ModeRun job whose rank 2 dies on the given attempts.
func faultSpec(t testing.TB, crashAttempt, maxAttempts int) JobSpec {
	tiny, _ := testScenes(t)
	return JobSpec{
		Mode:        ModeRun,
		Algorithm:   core.ATDCA,
		Network:     retryNet(t, 4),
		Cube:        tiny.Cube,
		CubeDigest:  CubeDigest(tiny.Cube),
		MaxAttempts: maxAttempts,
		Params: core.Params{
			Targets: 4,
			Faults:  &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.0001, Attempt: crashAttempt}}},
		},
	}
}

// A transient crash on attempt 1 is retried and the job completes, with
// the full attempt history recorded and the retry counted in the stats.
func TestRetryTransientFault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(context.Background(), faultSpec(t, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateCompleted {
		t.Fatalf("job settled as %s (err %v), want completed", st, j.Err())
	}
	attempts := j.Attempts()
	if len(attempts) != 2 {
		t.Fatalf("attempt history = %+v, want 2 records", attempts)
	}
	if !attempts[0].Retryable || attempts[0].Error == "" {
		t.Fatalf("first attempt record = %+v, want a retryable failure", attempts[0])
	}
	if attempts[1].Error != "" || attempts[1].VirtualSeconds <= 0 {
		t.Fatalf("second attempt record = %+v, want a clean success", attempts[1])
	}
	status := j.Status()
	if status.Attempts != 2 || len(status.AttemptHistory) != 2 {
		t.Fatalf("status attempts = %d (%d records), want 2", status.Attempts, len(status.AttemptHistory))
	}
	if stats := s.Stats(); stats.Retries != 1 || stats.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 retry and 1 completion", stats)
	}
}

// A permanent crash (every attempt) exhausts the budget and fails with
// the typed rank-failure error; the history shows every attempt.
func TestRetryBudgetExhausted(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(context.Background(), faultSpec(t, -1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateFailed {
		t.Fatalf("job settled as %s, want failed", st)
	}
	if !errors.Is(j.Err(), mpi.ErrRankFailed) {
		t.Fatalf("job error = %v, want rank failure", j.Err())
	}
	if got := j.Attempts(); len(got) != 3 {
		t.Fatalf("attempt history has %d records, want 3", len(got))
	}
	if stats := s.Stats(); stats.Retries != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 2 retries and 1 failure", stats)
	}
}

// Permanent failure classes are not retried: a cancelled job consumes
// exactly one attempt even with a generous budget.
func TestNoRetryOnCancellation(t *testing.T) {
	_, big := testScenes(t)
	s := New(Config{Workers: 1, CacheEntries: -1})
	defer s.Close()
	spec := JobSpec{
		Mode:        ModeRun,
		Algorithm:   core.MORPH,
		Network:     retryNet(t, 4),
		Cube:        big.Cube,
		MaxAttempts: 5,
	}
	release := setGate(s)
	spec.Label = "blocker"
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	release()
	j.Cancel()
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("job settled as %s, want cancelled", st)
	}
	if got := j.Attempts(); len(got) > 1 {
		t.Fatalf("cancelled job consumed %d attempts, want at most 1", len(got))
	}
	if stats := s.Stats(); stats.Retries != 0 {
		t.Fatalf("cancellation triggered %d retries", stats.Retries)
	}
}

// Validation rejects malformed retry and fault specs up front.
func TestFaultSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bad := faultSpec(t, 1, 3)
	bad.MaxAttempts = -1
	if _, err := s.Submit(context.Background(), bad); err == nil {
		t.Fatal("negative MaxAttempts accepted")
	}
	bad = faultSpec(t, 1, 3)
	bad.Params.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 99, At: 1}}}
	if _, err := s.Submit(context.Background(), bad); err == nil {
		t.Fatal("out-of-range fault rank accepted")
	}
}

// Fault-plan jobs bypass the result cache in both directions: they are
// neither stored nor served from it.
func TestFaultJobsBypassCache(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), faultSpec(t, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		if j.FromCache() {
			t.Fatalf("submission %d was served from cache", i)
		}
		if len(j.Attempts()) != 2 {
			t.Fatalf("submission %d recorded %d attempts, want 2 (no cache shortcut)", i, len(j.Attempts()))
		}
	}
	if stats := s.Stats(); stats.CacheEntries != 0 || stats.CacheHits != 0 {
		t.Fatalf("fault job touched the cache: %+v", stats)
	}
}

// Mid-run rank death under concurrent load: many fault jobs and clean
// jobs interleave across workers while statuses are polled — the -race
// CI run patrols the failure path for data races.
func TestConcurrentRankDeathRace(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 6; i++ {
		var spec JobSpec
		if i%2 == 0 {
			spec = faultSpec(t, 1, 3)
		} else {
			spec = tinySpec(t)
		}
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	poll := make(chan struct{})
	go func() {
		defer close(poll)
		for i := 0; i < 200; i++ {
			for _, j := range jobs {
				j.Status()
				j.Attempts()
			}
			s.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	for _, j := range jobs {
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
		if st := j.State(); st != StateCompleted {
			t.Fatalf("job %s settled as %s (err %v)", j.ID(), st, j.Err())
		}
	}
	<-poll
}

// recoveryFixture is the scene, parameters and platform shape of the
// degraded-rerun tests: a 32x24x16 scene on p ranks whose cycle-times
// cycle through three speeds.
func recoveryFixture(t testing.TB, p int) (*scene.Scene, core.Params, *platform.Network) {
	t.Helper()
	sc, err := scene.Generate(scene.Config{Lines: 32, Samples: 24, Bands: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{
		Targets: 5,
		PCT:     algo.PCTParams{Classes: 5, Theta: 0.08, MaxReps: 24},
		Morph:   algo.MorphParams{Classes: 5, Iterations: 2, Radius: 1, Theta: 0.08},
	}
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: 0.005 * float64(1+i%3), MemoryMB: 2048}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 15
			}
		}
	}
	net, err := platform.New("small", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sc, params, net
}

// recoverySpec is an uncached run of alg on the fixture's p-rank platform
// under the given crashes, with degraded-mode recovery on.
func recoverySpec(t testing.TB, alg core.Algorithm, p int, crashes ...fault.Crash) JobSpec {
	sc, params, net := recoveryFixture(t, p)
	if len(crashes) > 0 {
		params.Faults = &fault.Plan{Crashes: crashes}
	}
	return JobSpec{Mode: ModeRun, Algorithm: alg, Network: net, Cube: sc.Cube, Params: params, Recovery: true, NoCache: true}
}

// A worker crash without recovery fails the job with a typed rank
// failure; with recovery the same plan completes on the survivors,
// recording the attempts, the lost rank and the virtual time burned by
// the failed attempt.
func TestRecoveryDegradedRerun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 4, fault.Crash{Rank: 2, At: 0.001, Attempt: -1})
	spec.Recovery = false
	if j := runToEnd(t, s, spec); !errors.Is(j.Err(), mpi.ErrRankFailed) {
		t.Fatalf("without recovery: error = %v, want rank failure", j.Err())
	}

	spec.Recovery = true
	j := runToEnd(t, s, spec)
	rep := j.Report()
	if rep == nil {
		t.Fatalf("with recovery: %v", j.Err())
	}
	if rep.Attempts != 2 || len(j.Attempts()) != 2 {
		t.Fatalf("attempts = %d (history %d), want 2", rep.Attempts, len(j.Attempts()))
	}
	if !reflect.DeepEqual(rep.FailedRanks, []int{2}) {
		t.Fatalf("failed ranks = %v, want [2]", rep.FailedRanks)
	}
	if rep.Procs != 3 || rep.Network != "small-degraded" {
		t.Fatalf("degraded run on %q with %d procs, want small-degraded with 3", rep.Network, rep.Procs)
	}
	if rep.RecoveryOverhead <= 0 {
		t.Fatalf("recovery overhead = %v, want > 0", rep.RecoveryOverhead)
	}
	if rep.WallTime <= 0 || rep.Detection == nil || len(rep.Detection.Targets) == 0 {
		t.Fatalf("degraded run produced an invalid report: %+v", rep)
	}
	if len(rep.ProcTimes) != 3 || len(rep.BusyTimes) != 3 {
		t.Fatalf("per-processor series sized %d/%d, want 3", len(rep.ProcTimes), len(rep.BusyTimes))
	}

	// Determinism: the whole recovery sequence replays identically.
	rep2 := runToEnd(t, s, spec).Report()
	if rep2 == nil || rep2.WallTime != rep.WallTime || rep2.RecoveryOverhead != rep.RecoveryOverhead || rep2.Attempts != rep.Attempts {
		t.Fatalf("recovery replay diverged: %+v vs %+v", rep2, rep)
	}
}

// Two permanent worker crashes consume two reruns; the job completes on
// the remaining processors with both losses recorded against the
// original rank numbering.
func TestRecoveryMultipleFailures(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.PCT, 5,
		fault.Crash{Rank: 1, At: 0.001, Attempt: -1},
		fault.Crash{Rank: 3, At: 0.002, Attempt: -1})
	spec.MaxAttempts = 3
	rep := runToEnd(t, s, spec).Report()
	if rep == nil {
		t.Fatal("job did not complete")
	}
	if rep.Attempts != 3 || rep.Procs != 3 {
		t.Fatalf("attempts = %d, procs = %d; want 3 and 3", rep.Attempts, rep.Procs)
	}
	// Rank 1 dies first; rank 3 of the original network is rank 2 of the
	// degraded one, and must be reported under its original number.
	if !reflect.DeepEqual(rep.FailedRanks, []int{1, 3}) {
		t.Fatalf("failed ranks = %v, want [1 3]", rep.FailedRanks)
	}
	if rep.Classification == nil {
		t.Fatal("degraded run produced no classification")
	}
}

// The attempt budget is a hard cap: a crash that outlives it fails the
// job with the typed error intact.
func TestRecoveryBudgetExhausted(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 4,
		fault.Crash{Rank: 1, At: 0.001, Attempt: -1},
		fault.Crash{Rank: 2, At: 0.001, Attempt: -1})
	spec.MaxAttempts = 2
	j := runToEnd(t, s, spec)
	if !errors.Is(j.Err(), mpi.ErrRankFailed) {
		t.Fatalf("error = %v, want rank failure after budget exhaustion", j.Err())
	}
	if n := len(j.Attempts()); n != 2 {
		t.Fatalf("%d attempts, want the budget of 2", n)
	}
}

// The master holds the scene: its death never shrinks the platform, so a
// permanent master crash fails every attempt on the full network.
func TestRecoveryMasterDeathUnrecoverable(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 3, fault.Crash{Rank: 0, At: 0.001, Attempt: -1})
	spec.MaxAttempts = 5
	j := runToEnd(t, s, spec)
	var rf *mpi.RankFailedError
	if !errors.As(j.Err(), &rf) || rf.Rank != 0 {
		t.Fatalf("error = %v, want a rank 0 failure", j.Err())
	}
	if n := len(j.Attempts()); n != 5 {
		t.Fatalf("%d attempts, want the budget of 5", n)
	}
}

// A clean job takes one attempt and reports no recovery bookkeeping.
func TestCleanRunAttempts(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j := runToEnd(t, s, recoverySpec(t, core.ATDCA, 3))
	rep := j.Report()
	if rep == nil || len(j.Attempts()) != 1 {
		t.Fatalf("clean job: report %v, %d attempts (err %v)", rep, len(j.Attempts()), j.Err())
	}
	if rep.Attempts != 1 || len(rep.FailedRanks) != 0 || rep.RecoveryOverhead != 0 {
		t.Fatalf("clean run bookkeeping = attempts %d, failed %v, overhead %v",
			rep.Attempts, rep.FailedRanks, rep.RecoveryOverhead)
	}
}

// The job and its report count attempts alike: a transient worker crash
// under recovery's default budget is one failed attempt plus one rerun
// on the survivors, in both counters.
func TestRecoveryOneAttemptCounter(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j := runToEnd(t, s, recoverySpec(t, core.ATDCA, 4, fault.Crash{Rank: 2, At: 0.001, Attempt: 1}))
	rep := j.Report()
	if rep == nil {
		t.Fatalf("job did not complete: %v", j.Err())
	}
	if len(j.Attempts()) != 2 || rep.Attempts != 2 {
		t.Fatalf("job attempts %d, report attempts %d; want 2 and 2", len(j.Attempts()), rep.Attempts)
	}
	if !reflect.DeepEqual(rep.FailedRanks, []int{2}) {
		t.Fatalf("failed ranks = %v, want [2]", rep.FailedRanks)
	}
}

// Reruns on the survivors and reruns on the same network share one
// attempt axis: no fault event fires twice. Attempt 1 loses rank 2,
// attempt 2 (on the survivors) loses the master and reruns on the same
// three processors, and attempt 3 completes there.
func TestRecoveryOneFaultAttemptAxis(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 4,
		fault.Crash{Rank: 2, At: 0.001, Attempt: 1},
		fault.Crash{Rank: 0, At: 0.001, Attempt: 2})
	spec.MaxAttempts = 3
	rep := runToEnd(t, s, spec).Report()
	if rep == nil {
		t.Fatal("job did not complete")
	}
	if rep.Procs != 3 || rep.Attempts != 3 || !reflect.DeepEqual(rep.FailedRanks, []int{2}) {
		t.Fatalf("procs %d, attempts %d, failed ranks %v; want 3, 3 and [2]", rep.Procs, rep.Attempts, rep.FailedRanks)
	}
}

// A crashed worker's outstanding chunks must be recomputed exactly once:
// the balanced rerun on the survivors matches a clean static run on the
// degraded network bit for bit — no chunk lost, none double-computed.
func TestBalancedCrashRecoveryMatchesBaseline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, alg := range core.Algorithms {
		spec := recoverySpec(t, alg, 4, fault.Crash{Rank: 2, At: 0.0005, Attempt: 1})
		spec.Balance = true
		crashed := runToEnd(t, s, spec).Report()
		if crashed == nil {
			t.Fatalf("%s did not complete", alg)
		}
		if crashed.Attempts < 2 {
			t.Fatalf("%s: crash did not trigger recovery (attempts=%d)", alg, crashed.Attempts)
		}
		if crashed.Procs != 3 {
			t.Errorf("%s: expected 3 survivors, got %d", alg, crashed.Procs)
		}
		if !crashed.Balanced || crashed.BalanceChunks <= 0 {
			t.Errorf("%s: recovered run lost its balance accounting", alg)
		}
		degradedNet, err := spec.Network.Without(2)
		if err != nil {
			t.Fatal(err)
		}
		params := spec.Params
		params.Faults = nil
		want, err := core.Run(degradedNet, alg, core.Hetero, spec.Cube, params)
		if err != nil {
			t.Fatalf("%s static reference: %v", alg, err)
		}
		if !reflect.DeepEqual(want.Detection, crashed.Detection) {
			t.Errorf("%s: recovered detection diverged from clean static run", alg)
		}
		if !reflect.DeepEqual(want.Classification, crashed.Classification) {
			t.Errorf("%s: recovered classification diverged from clean static run", alg)
		}
	}
}

// A worker dies mid-run, the rerun on the survivors resumes from the last
// checkpointed round instead of recomputing — same detections, strictly
// less compute than the checkpoint-free rerun of the identical failure.
func TestCheckpointResumeAfterRankFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 4)
	// Scale the per-round compute well above the fixed checkpoint-write
	// latency, as in any realistically sized scene; on the tiny test scene
	// the fsync cost would otherwise swamp the rounds it saves.
	spec.Params.WorkScale = 50
	// Calibrate the crash instant to the middle of a checkpointed clean
	// run, so attempt 1 completes some rounds before rank 2 dies.
	spec.Checkpoint = true
	clean := runToEnd(t, s, spec).Report()
	if clean == nil {
		t.Fatal("clean checkpointed job did not complete")
	}
	spec.Params.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: clean.WallTime / 2, Attempt: 1}}}

	// Checkpoint-free baseline: the rerun starts from scratch.
	spec.Checkpoint = false
	scratch := runToEnd(t, s, spec).Report()
	if scratch == nil || scratch.Attempts != 2 {
		t.Fatalf("baseline report %+v, want 2 attempts", scratch)
	}

	spec.Checkpoint = true
	rep := runToEnd(t, s, spec).Report()
	if rep == nil || rep.Attempts != 2 {
		t.Fatalf("checkpointed report %+v, want 2 attempts", rep)
	}
	if rep.ResumedFromRound < 1 || rep.ResumedFromRound >= spec.Params.Targets {
		t.Fatalf("resumed from round %d, want a mid-run round in [1,%d)", rep.ResumedFromRound, spec.Params.Targets)
	}
	if !reflect.DeepEqual(scratch.Detection.Targets, rep.Detection.Targets) {
		t.Fatal("resumed rerun detected different targets")
	}
	if rep.Seq+rep.Par >= scratch.Seq+scratch.Par {
		t.Errorf("resumed retry compute %v not below from-scratch retry %v", rep.Seq+rep.Par, scratch.Seq+scratch.Par)
	}

	// Determinism: the whole crash-resume sequence replays identically.
	rep2 := runToEnd(t, s, spec).Report()
	if rep2 == nil || rep2.WallTime != rep.WallTime || rep2.ResumedFromRound != rep.ResumedFromRound {
		t.Fatalf("resume replay diverged: %+v vs %+v", rep2, rep)
	}
}

// The checkpoint counters count every snapshot a job writes, including
// those of an attempt that later died: for a retried checkpointed job
// their deltas equal the report's job-wide CheckpointSaves and
// CheckpointBytes.
func TestCheckpointCountersIncludeFailedAttempts(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg})
	defer s.Close()
	spec := recoverySpec(t, core.ATDCA, 4)
	spec.Params.WorkScale = 50
	spec.Checkpoint = true
	clean := runToEnd(t, s, spec).Report()
	if clean == nil {
		t.Fatal("clean checkpointed job did not complete")
	}
	spec.Params.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: clean.WallTime / 2, Attempt: 1}}}

	counter := func(name string) float64 {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			var v float64
			if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 {
				return v
			}
		}
		t.Fatalf("%s not in exposition", name)
		return 0
	}
	saves, bytes := counter("hyperhet_core_checkpoint_saves_total"), counter("hyperhet_core_checkpoint_bytes_total")
	rep := runToEnd(t, s, spec).Report()
	if rep == nil || rep.Attempts != 2 || rep.ResumedFromRound < 1 {
		t.Fatalf("report %+v, want a second attempt resumed mid-run", rep)
	}
	if d := counter("hyperhet_core_checkpoint_saves_total") - saves; d != float64(rep.CheckpointSaves) {
		t.Errorf("saves counter rose by %v, report has %d saves", d, rep.CheckpointSaves)
	}
	if d := counter("hyperhet_core_checkpoint_bytes_total") - bytes; d != float64(rep.CheckpointBytes) {
		t.Errorf("bytes counter rose by %v, report has %d bytes", d, rep.CheckpointBytes)
	}
}
