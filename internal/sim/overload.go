package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/sched"
)

// admitTally is the harness's own admission ledger for one phase: every
// scheduler Submit/SubmitResumed outcome the harness caused, counted
// attempt by attempt. At phase end it must balance against the
// scheduler's counters exactly — a shed the scheduler counted but the
// harness never saw (or vice versa) is an invariant breach. Submissions
// are sequential within a phase, so plain ints suffice.
type admitTally struct {
	admitted  int
	shed      int // guard denials other than breaker-open
	breaker   int // breaker-open denials
	queueFull int
	expired   int // storm jobs observed settled by queue expiry
}

// count records one submission outcome. It returns whether the error is
// worth retrying for a caller that must eventually be admitted
// (queue-full and non-breaker sheds clear as the queue drains; breaker
// denials persist for the breaker's cooldown and bad specs forever).
func (t *admitTally) count(err error) (retryable bool) {
	switch {
	case err == nil:
		t.admitted++
		return false
	case errors.Is(err, sched.ErrBreakerOpen):
		t.breaker++
		return false
	case errors.Is(err, sched.ErrShed):
		t.shed++
		return true
	case errors.Is(err, sched.ErrQueueFull):
		t.queueFull++
		return true
	}
	return false
}

// overloadGuard builds the phase's guard controller from the plan. The
// limit is pinned (Min == Max) so admission decisions depend on queue
// occupancy, not on wall-clock latency drift; the breaker cooldown is
// effectively infinite so a tripped circuit stays open for the rest of
// the phase and the trip assertion cannot race a half-open probe.
func overloadGuard(ov *OverloadPlan) *guard.Controller {
	if ov == nil {
		return nil
	}
	return guard.New(guard.Config{
		Limiter:        guard.LimiterConfig{Initial: ov.Limit, Min: ov.Limit, Max: ov.Limit},
		DisableBreaker: !ov.Breaker,
		Breaker:        guard.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
}

// stormSpec is one storm submission: a tiny sequential job that does
// real work (no cache, so it occupies a worker) but never touches the
// journal — storm jobs are load, not workload, and a journaled storm
// story would have no plan to resume against after a crash.
func stormSpec(scn *Scenario, scenes *SceneCache, label string, timeout time.Duration) (sched.JobSpec, error) {
	sc, digest, _, err := scenes.Provide(scn.Jobs[0].Scene)
	if err != nil {
		return sched.JobSpec{}, fmt.Errorf("sim: generating storm scene: %w", err)
	}
	return sched.JobSpec{
		Algorithm:  core.ATDCA,
		Mode:       sched.ModeSequential,
		Cube:       sc.Cube,
		CubeDigest: digest,
		Params:     core.Params{Targets: 4},
		Label:      label,
		Timeout:    timeout,
		NoCache:    true,
		NoJournal:  true,
	}, nil
}

// tripSpec is one breaker-trip submission: a networked run whose
// permanent crash exhausts its single attempt, feeding the backend
// circuit breaker one qualifying failure. Every trip job shares the
// same fault plan, hence the same backend key — distinct from every
// scenario job's key, so the trip never poisons the workload.
func tripSpec(scn *Scenario, scenes *SceneCache, label string, plan *fault.Plan) (sched.JobSpec, error) {
	sc, digest, _, err := scenes.Provide(scn.Jobs[0].Scene)
	if err != nil {
		return sched.JobSpec{}, fmt.Errorf("sim: generating trip scene: %w", err)
	}
	return sched.JobSpec{
		Algorithm:  core.ATDCA,
		Mode:       sched.ModeRun,
		Network:    networkFor("fully-het"),
		Cube:       sc.Cube,
		CubeDigest: digest,
		Params:     core.Params{Targets: 4, Faults: plan},
		Label:      label,
		NoCache:    true,
		NoJournal:  true,
	}, nil
}

// runStorm injects the phase's submit storm and, when the plan asks for
// it, the breaker-trip sequence. It returns the handles of admitted
// storm jobs so the phase end can audit the expiry invariant. Storm
// submissions are fired exactly once — a shed storm job is the guard
// doing its job, not work the harness owes anyone.
func runStorm(scn *Scenario, phase int, s *sched.Scheduler, scenes *SceneCache,
	out *Outcome, tally *admitTally, timeout time.Duration) ([]*sched.Job, error) {
	ov := scn.Overload
	ctx := context.Background()
	var handles []*sched.Job
	for i := 0; i < ov.Storm; i++ {
		var budget time.Duration
		if i < ov.Doomed {
			budget = time.Millisecond
		}
		spec, err := stormSpec(scn, scenes, fmt.Sprintf("storm-p%d-%d", phase, i), budget)
		if err != nil {
			return handles, err
		}
		j, err := s.Submit(ctx, spec)
		tally.count(err)
		if err == nil {
			handles = append(handles, j)
		}
	}
	if !ov.Breaker {
		return handles, nil
	}

	// Trip sequence: two guaranteed failures against one backend, waited
	// to settlement so their outcomes reach the breaker in order, then a
	// third identical submission that the opened circuit must reject.
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.0001, Attempt: -1}}}
	deadline := time.Now().Add(timeout)
	for i := 0; i < 2; i++ {
		spec, err := tripSpec(scn, scenes, fmt.Sprintf("trip-p%d-%d", phase, i), plan)
		if err != nil {
			return handles, err
		}
		j, err := submitJobRetry(tally, func() (*sched.Job, error) { return s.Submit(ctx, spec) })
		if err != nil {
			out.fail("breaker: phase %d: trip job %d not admitted: %v", phase, i, err)
			return handles, nil
		}
		select {
		case <-j.Done():
		case <-time.After(time.Until(deadline)):
			out.fail("breaker: phase %d: trip job %d did not settle within %v", phase, i, timeout)
			return handles, nil
		}
		if st := j.State(); st != sched.StateFailed {
			out.fail("breaker: phase %d: trip job %d settled %s, want failed", phase, i, st)
			return handles, nil
		}
	}
	spec, err := tripSpec(scn, scenes, fmt.Sprintf("trip-p%d-2", phase), plan)
	if err != nil {
		return handles, err
	}
	j, err := s.Submit(ctx, spec)
	tally.count(err)
	switch {
	case err == nil:
		out.fail("breaker: phase %d: submission after 2 consecutive backend failures was admitted (job %s)", phase, j.ID())
	case !errors.Is(err, sched.ErrBreakerOpen):
		out.fail("breaker: phase %d: post-trip submission rejected with %v, want breaker-open", phase, err)
	}
	return handles, nil
}

// auditStorm inspects the settled storm jobs and checks the phase's
// overload balance against the scheduler's counters.
func auditStorm(out *Outcome, phase int, st sched.Stats, tally *admitTally, handles []*sched.Job) {
	for _, j := range handles {
		status := j.Status()
		if !strings.Contains(status.Error, "expired while queued") {
			continue
		}
		tally.expired++
		// The expiry invariant: a job settled because its deadline passed
		// in queue must never have been dispatched.
		if !status.Started.IsZero() || status.Attempts != 0 {
			out.fail("expiry: phase %d: job %s expired in queue yet ran (started=%v attempts=%d)",
				phase, j.ID(), status.Started, status.Attempts)
		}
		if status.State != sched.StateCancelled {
			out.fail("expiry: phase %d: expired job %s settled %s, want cancelled", phase, j.ID(), status.State)
		}
	}

	if got, want := st.Submitted, uint64(tally.admitted); got != want {
		out.fail("balance: phase %d scheduler counted %d submitted, harness admitted %d", phase, got, want)
	}
	if got, want := st.Shed, uint64(tally.shed); got != want {
		out.fail("balance: phase %d scheduler counted %d shed, harness observed %d", phase, got, want)
	}
	if got, want := st.BreakerRejects, uint64(tally.breaker); got != want {
		out.fail("balance: phase %d scheduler counted %d breaker rejects, harness observed %d", phase, got, want)
	}
	if got, want := st.Rejected, uint64(tally.shed+tally.breaker+tally.queueFull); got != want {
		out.fail("balance: phase %d scheduler counted %d rejected, harness observed %d", phase, got, want)
	}
	if got, want := st.Expired, uint64(tally.expired); got != want {
		out.fail("balance: phase %d scheduler counted %d expired, harness observed %d", phase, got, want)
	}
}
