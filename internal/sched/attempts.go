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

	var ckpt *jobStore
	if j.spec.Checkpoint {
		ckpt = &jobStore{s: s, j: j}
		if j.seed != nil {
			// Neither counted nor journaled; a MemStore's Save never fails.
			_ = ckpt.MemStore.Save(*j.seed)
		}
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
				res.CheckpointSaves, res.CheckpointBytes = ckpt.saves, ckpt.bytes
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
func (s *Scheduler) execute(j *Job, c *cube.Cube, net *platform.Network, plan *fault.Plan, ckpt *jobStore, attempt int) (*core.RunReport, error) {
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

// jobStore is a checkpointed job's store: a checkpoint.MemStore that
// outlives every attempt, so a rerun resumes from the last round an
// earlier attempt saved, seeded with the snapshot a journal replay
// recovered for the job. Every save is also counted, journaled as a
// checkpointed record, so the resume state survives a process restart,
// and then reported to OnJobCheckpoint. Attempts run one at a time and
// only the master rank's goroutine saves, so the counts need no lock.
type jobStore struct {
	checkpoint.MemStore
	s *Scheduler
	j *Job
	// saves and bytes count the job's snapshot writes across attempts.
	saves int
	bytes int64
}

func (st *jobStore) Save(snap checkpoint.Snapshot) error {
	if err := st.MemStore.Save(snap); err != nil {
		return err
	}
	st.saves++
	st.bytes += int64(len(snap.Payload))
	if st.s.cfg.Journal != nil && !st.j.spec.NoJournal {
		st.s.JournalAppend(Record{Type: recCheckpointed, Job: st.j.id, Round: snap.Round, Snapshot: checkpoint.Encode(snap)})
	}
	if hook := st.s.cfg.OnJobCheckpoint; hook != nil {
		hook(st.j, snap.Round)
	}
	return nil
}
