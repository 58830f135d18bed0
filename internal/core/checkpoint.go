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
	inner checkpoint.Checkpointer
	tel   *Metrics
	saves int
	bytes int64
	// offered is the round of the snapshot most recently handed out by
	// Latest; combined with the mpi restore charge counter it yields the
	// round the successful attempt actually resumed from.
	offered int
}

func (c *countingCheckpointer) Save(s checkpoint.Snapshot) error {
	if err := c.inner.Save(s); err != nil {
		return err
	}
	c.saves++
	c.bytes += int64(len(s.Payload))
	c.tel.checkpointSaved(len(s.Payload))
	return nil
}

func (c *countingCheckpointer) Latest() (checkpoint.Snapshot, bool) {
	s, ok := c.inner.Latest()
	if ok {
		c.offered = s.Round
	}
	return s, ok
}
