package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/guard"
)

// Overload-control sentinels. Both are matched through errors.Is against
// the concrete *ShedError the scheduler returns.
var (
	// ErrShed reports a submission denied by the overload-control layer
	// (adaptive limit or unaffordable deadline). Shed work is healthy to
	// retry after the error's RetryAfter hint; the HTTP layer maps it to
	// 429 with a Retry-After header.
	ErrShed = errors.New("sched: submission shed")
	// ErrBreakerOpen reports a submission denied because its backend's
	// circuit breaker is open (or half-open with the probe slot taken).
	// The HTTP layer maps it to 503: the backend, not the client's rate,
	// is the problem.
	ErrBreakerOpen = errors.New("sched: backend circuit breaker open")
)

// ShedError is an admission denial from the guard, carrying the reason
// and the suggested client back-off. errors.Is(err, ErrShed) matches
// every denial; errors.Is(err, ErrBreakerOpen) matches breaker denials
// specifically.
type ShedError struct {
	// Reason classifies the denial (guard.ReasonLimit, ReasonDeadline
	// or ReasonBreakerOpen).
	Reason guard.Reason
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error renders the denial.
func (e *ShedError) Error() string {
	if e.Reason == guard.ReasonBreakerOpen {
		return fmt.Sprintf("sched: backend circuit breaker open, retry after %v", e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("sched: submission shed (%s), retry after %v", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Is implements errors.Is matching against the sentinels.
func (e *ShedError) Is(target error) bool {
	switch target {
	case ErrShed:
		return true
	case ErrBreakerOpen:
		return e.Reason == guard.ReasonBreakerOpen
	}
	return false
}

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

// backendKey names the (network, fault-profile) backend a job runs
// against — the circuit-breaker key. Keying on the fault plan too keeps
// deliberate chaos jobs from tripping the breaker for clean jobs on the
// same network. Sequential jobs have no backend and are never broken.
func (spec *JobSpec) backendKey() string {
	if spec.Network == nil {
		return ""
	}
	return spec.Network.Name + "|" + spec.Params.Faults.Fingerprint()
}

// Guard returns the scheduler's overload controller (nil when off).
func (s *Scheduler) Guard() *guard.Controller { return s.cfg.Guard }

// GuardState snapshots the overload-control layer for /stats and
// /readyz (the zero State when the guard is off).
func (s *Scheduler) GuardState() guard.State { return s.cfg.Guard.State() }
