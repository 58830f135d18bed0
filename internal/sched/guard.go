package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/guard"
)

// ErrShed reports a submission denied by the overload-control layer
// (adaptive limit or unaffordable deadline), matched through errors.Is
// against the concrete *ShedError the scheduler returns. Shed work is
// healthy to retry after the error's RetryAfter hint; the HTTP layer
// maps it to 429 with a Retry-After header.
var ErrShed = errors.New("sched: submission shed")

// ShedError is an admission denial from the guard, carrying the reason
// and the suggested client back-off. errors.Is(err, ErrShed) matches
// every denial.
type ShedError struct {
	// Reason classifies the denial (guard.ReasonLimit or
	// ReasonDeadline).
	Reason guard.Reason
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error renders the denial.
func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: submission shed (%s), retry after %v", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Is implements errors.Is matching against ErrShed.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// RetryAfterHint extracts the client back-off from an admission error:
// the guard's hint for sheds, a default second for plain queue-full and
// drain rejections (both clear quickly or not at all), 0/false for
// errors that carry no hint.
func RetryAfterHint(err error) (time.Duration, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
		return time.Second, true
	}
	return 0, false
}

// Guard returns the scheduler's overload controller (nil when off).
func (s *Scheduler) Guard() *guard.Controller { return s.cfg.Guard }

// GuardState snapshots the overload-control layer for /stats (the zero
// State when the guard is off).
func (s *Scheduler) GuardState() guard.State { return s.cfg.Guard.State() }
