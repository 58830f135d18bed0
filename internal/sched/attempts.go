package sched

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// runAttempts is the one place a job is re-executed: one core run over
// cube c per attempt and, after a retryable failure within the budget,
// the next at once (a simulated fault cannot be waited out) — on the
// survivors when Recovery is set and a worker rank died, else on the same
// network. The attempt number filters the fault plan, so a crash pinned
// to attempt 1 spares every rerun.
func (s *Scheduler) runAttempts(j *Job, c *cube.Cube) (*core.RunReport, error) {
	budget := j.spec.MaxAttempts
	if budget == 0 && j.spec.Recovery {
		budget = 3
	}
	net, plan := j.spec.Network, j.spec.Params.Faults
	var alive []int // the current network's ranks, numbered as submitted
	if net != nil {
		alive = make([]int, net.Size())
		for i := range alive {
			alive[i] = i
		}
	}
	var failed []int
	var overhead float64

	// The checkpoint store outlives every attempt, so a rerun resumes from
	// the last round an earlier attempt saved; with a journal, every
	// snapshot is also persisted for resume across a process restart.
	var ckpt checkpoint.Checkpointer
	var saves, savedBytes int64
	if j.spec.Checkpoint {
		mem := &checkpoint.MemStore{}
		mem.Seed(j.seed)
		var store checkpoint.Checkpointer = mem
		if s.cfg.Journal != nil && !j.spec.NoJournal {
			store = &journaledStore{inner: mem, sched: s, job: j.id}
		}
		ckpt = &checkpoint.NotifyStore{Inner: store, OnSave: func(snap checkpoint.Snapshot) {
			saves, savedBytes = saves+1, savedBytes+int64(len(snap.Payload))
			if hook := s.cfg.OnJobCheckpoint; hook != nil {
				hook(j, snap.Round)
			}
		}}
	}

	for attempt := 1; ; attempt++ {
		if !j.spec.NoJournal {
			s.appendStory(j, Record{Type: recStarted, Job: j.id, Attempt: attempt})
		}
		// An attempt starts once its started record is durable: the fsync
		// is the journal's cost, not the run's. The job starts with its
		// first attempt.
		started := time.Now()
		if attempt == 1 {
			j.mu.Lock()
			j.startedAt = started
			j.mu.Unlock()
		}
		res, err := s.execute(j, c, net, plan, ckpt, attempt)
		rec := AttemptRecord{Attempt: attempt, Started: started, Finished: time.Now()}
		if err == nil {
			rec.VirtualSeconds = res.WallTime
			j.recordAttempt(rec)
			// The report is this job's own until it is cached or settled.
			res.Attempts, res.FailedRanks, res.RecoveryOverhead = attempt, failed, overhead
			if ckpt != nil {
				res.CheckpointSaves, res.CheckpointBytes = int(saves), savedBytes
			}
			return res, nil
		}
		rec.Error, rec.Retryable = err.Error(), mpi.IsRetryable(err)
		j.recordAttempt(rec)
		if !rec.Retryable || attempt >= budget {
			return nil, err
		}
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) {
			overhead += rf.VTime
			if j.spec.Recovery && rf.Rank != 0 { // rank 0 holds the scene
				degraded, derr := net.Without(rf.Rank)
				if derr != nil {
					return nil, fmt.Errorf("sched: job %s: degrading after %v: %w", j.id, err, derr)
				}
				failed = append(failed, alive[rf.Rank])
				alive = slices.Delete(alive, rf.Rank, rf.Rank+1)
				net, plan = degraded, plan.Without(rf.Rank)
			}
		}
		s.tel.retries.Inc()
	}
}

// execute runs one attempt of the job over cube c on network net (nil in
// sequential mode) with fault plan plan, on the job's context.
func (s *Scheduler) execute(j *Job, c *cube.Cube, net *platform.Network, plan *fault.Plan, ckpt checkpoint.Checkpointer, attempt int) (*core.RunReport, error) {
	spec := &j.spec
	params := spec.Params
	params.Faults, params.FaultAttempt = plan, attempt
	// The simulation instruments ride the context, not Params: Params is
	// part of the cache key and must stay a pure value. The checkpoint
	// store travels the same way, for the same reason.
	ctx := core.WithMetrics(j.ctx, s.tel.core)
	if ckpt != nil {
		ctx = core.WithCheckpointer(ctx, ckpt)
	}
	if spec.Balance {
		ctx = core.WithBalance(ctx, balance.DefaultPolicy())
	}
	if spec.Mode == ModeSequential {
		return core.RunSequentialContext(ctx, spec.CycleTime, spec.Algorithm, c, params)
	}
	return core.RunContext(ctx, net, spec.Algorithm, spec.Variant, c, params)
}
