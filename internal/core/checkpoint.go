package core

import (
	"context"

	"repro/internal/checkpoint"
)

// Checkpointing travels on the context, exactly like Metrics: Params is
// part of the scheduler's result-cache key (rendered with %+v) and must
// stay a pure value type, so the store is attached out of band and core
// hands it to the algorithms in algo.Exec.

type checkpointerKey struct{}

// WithCheckpointer returns a context carrying ck; runs started under it
// save master round state at every round boundary and resume from the
// store's latest snapshot, so a rerun over the same store — the
// scheduler's next attempt of a job — restarts from the last completed
// round instead of round zero. A nil ck (or a context without one) leaves
// runs checkpoint-free and byte-identical to before.
func WithCheckpointer(ctx context.Context, ck checkpoint.Checkpointer) context.Context {
	return context.WithValue(ctx, checkpointerKey{}, ck)
}

// CheckpointerFrom returns the Checkpointer carried by ctx, or nil.
func CheckpointerFrom(ctx context.Context) checkpoint.Checkpointer {
	ck, _ := ctx.Value(checkpointerKey{}).(checkpoint.Checkpointer)
	return ck
}

// countingCheckpointer wraps the attached store to account snapshot
// traffic for the RunReport and the run's Metrics. Every save is counted
// the moment it is stored, so the metrics include attempts that later
// fail. Only the master rank's goroutine touches it during a run, so
// plain fields suffice.
type countingCheckpointer struct {
	checkpoint.Checkpointer // the attached store; Latest passes through
	tel                     *Metrics
	saves                   int
	bytes                   int64
	// resumed is the round the run resumed after, as the algorithm's
	// restore reported it; 0 when it ran from scratch.
	resumed int
}

func (c *countingCheckpointer) Save(s checkpoint.Snapshot) error {
	if err := c.Checkpointer.Save(s); err != nil {
		return err
	}
	c.saves++
	c.bytes += int64(len(s.Payload))
	c.tel.checkpointSaved(len(s.Payload))
	return nil
}

// Resumed records the round a restore resumed the run after.
func (c *countingCheckpointer) Resumed(round int) { c.resumed = round }
