package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// admitTally is the harness's own admission ledger for one phase: every
// scheduler Submit outcome the harness caused, counted attempt by attempt,
// plus the jobs recovery resumed. At phase end it must balance against the
// scheduler's counters exactly — a queue-full rejection the scheduler
// counted but the harness never saw (or vice versa) is an invariant
// breach. Submissions are sequential within a phase, so plain ints
// suffice.
type admitTally struct {
	admitted  int
	queueFull int
	expired   int // storm jobs observed settled by queue expiry
}

// count records one submission outcome. It returns whether the error is
// worth retrying for a caller that must eventually be admitted
// (queue-full clears as the queue drains; bad specs persist).
func (t *admitTally) count(err error) (retryable bool) {
	switch {
	case err == nil:
		t.admitted++
		return false
	case errors.Is(err, sched.ErrQueueFull):
		t.queueFull++
		return true
	}
	return false
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

// runStorm injects the phase's submit storm. It returns the handles of
// admitted storm jobs so the phase end can audit the expiry invariant.
// Storm submissions are fired exactly once — a storm job refused by the
// full queue is backpressure doing its job, not work the harness owes
// anyone.
func runStorm(scn *Scenario, phase int, s *sched.Scheduler, scenes *SceneCache,
	tally *admitTally) ([]*sched.Job, error) {
	st := scn.Storm
	ctx := context.Background()
	var handles []*sched.Job
	for i := 0; i < st.Jobs; i++ {
		var budget time.Duration
		if i < st.Doomed {
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
	return handles, nil
}

// auditStorm inspects the settled storm jobs and checks the phase's
// admission balance against the scheduler's counters.
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
	if got, want := st.Rejected, uint64(tally.queueFull); got != want {
		out.fail("balance: phase %d scheduler counted %d rejected, harness observed %d", phase, got, want)
	}
	if got, want := st.Expired, uint64(tally.expired); got != want {
		out.fail("balance: phase %d scheduler counted %d expired, harness observed %d", phase, got, want)
	}
}
