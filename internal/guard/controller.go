package guard

import (
	"time"
)

// Config parameterizes a Controller. The zero value selects the
// defaults of every mechanism.
type Config struct {
	// Limiter tunes the AIMD concurrency limiter.
	Limiter LimiterConfig
}

// Request is one admission question.
type Request struct {
	// Class is the submission's scheduling class.
	Class Class
	// Timeout is the job's deadline budget (0 = none).
	Timeout time.Duration
	// QueuedAhead counts the submissions queued at the submission's
	// class and above — its queue position if admitted.
	QueuedAhead int
	// InFlight counts queued plus running work across all classes.
	InFlight int
}

// Outcome is ObserveDone's outcome argument, which the controller
// ignores; OutcomeNeutral is its one value.
type Outcome int

// OutcomeNeutral is the one Outcome.
const OutcomeNeutral Outcome = 0

// Controller composes the guard mechanisms behind one Admit/Observe
// API. All methods are safe for concurrent use; a nil *Controller is a
// valid no-op that admits everything.
type Controller struct {
	limiter   *Limiter
	estimator *WaitEstimator
}

// New builds a controller.
func New(cfg Config) *Controller {
	return &Controller{
		limiter:   newLimiter(cfg.Limiter),
		estimator: newWaitEstimator(len(classFractions)),
	}
}

// Admit runs the admission pipeline, in shed order:
//
//  1. AIMD limit — the class's fraction of the adaptive limit against
//     current in-flight work, so lower classes shed first;
//  2. deadline — the estimated queue wait against the job's timeout,
//     so work that would expire unserved is rejected at the door.
func (c *Controller) Admit(req Request) Verdict {
	if c == nil {
		return Verdict{Allow: true}
	}
	cl := min(max(int(req.Class), 0), len(classFractions)-1)
	limit := int(float64(c.limiter.Limit()) * classFractions[cl])
	if limit < 1 {
		limit = 1
	}
	if req.InFlight >= limit {
		return Verdict{Reason: ReasonLimit, RetryAfter: c.slotRetry()}
	}
	if req.Timeout > 0 {
		if est := c.estimator.Estimate(req.Class, req.QueuedAhead); est > req.Timeout {
			return Verdict{Reason: ReasonDeadline, RetryAfter: est - req.Timeout}
		}
	}
	return Verdict{Allow: true}
}

// slotRetry estimates how long until an in-flight slot frees: the
// latency baseline when known, 1s otherwise.
func (c *Controller) slotRetry() time.Duration {
	if b := c.limiter.Baseline(); b > 0 {
		return time.Duration(b * float64(time.Second))
	}
	return time.Second
}

// ObserveDispatch teaches the wait estimator one dispatched job: it
// waited `wait` in queue with `ahead` submissions in front of it at
// admission.
func (c *Controller) ObserveDispatch(class Class, wait time.Duration, ahead int) {
	if c == nil {
		return
	}
	c.estimator.Observe(class, wait, ahead)
}

// ObserveDone feeds one settled job back: its total submit-to-settle
// latency (the limiter's signal) and whether it completed successfully.
// The class, key, execution-time, outcome and probe arguments are
// ignored.
func (c *Controller) ObserveDone(_ Class, _ string, latency, _ time.Duration, ok bool, _ Outcome, _ bool) {
	if c == nil {
		return
	}
	c.limiter.Observe(latency, ok)
}

// State is a JSON-shaped snapshot of the controller for /stats.
type State struct {
	// Limit is the current AIMD admission limit.
	Limit int `json:"limit"`
	// BaselineMS is the moving latency baseline in milliseconds.
	BaselineMS float64 `json:"baseline_ms"`
}

// State snapshots the controller.
func (c *Controller) State() State {
	if c == nil {
		return State{}
	}
	return State{
		Limit:      c.limiter.Limit(),
		BaselineMS: c.limiter.Baseline() * 1000,
	}
}
