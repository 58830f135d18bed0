package guard

import (
	"time"
)

// Config parameterizes a Controller. The zero value selects the
// defaults of every mechanism.
type Config struct {
	// Limiter tunes the AIMD concurrency limiter.
	Limiter LimiterConfig
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// DisableBreaker turns circuit breaking off.
	DisableBreaker bool
}

// Request is one admission question.
type Request struct {
	// Class is the submission's scheduling class.
	Class Class
	// BackendKey names the (network, fault-profile) backend; "" skips
	// the breaker.
	BackendKey string
	// Timeout is the job's deadline budget (0 = none).
	Timeout time.Duration
	// QueuedAhead counts the submissions queued at the submission's
	// class and above — its queue position if admitted.
	QueuedAhead int
	// InFlight counts queued plus running work across all classes.
	InFlight int
}

// Outcome classifies a finished job for the breaker.
type Outcome int

const (
	// OutcomeNeutral records nothing against the backend (cancellation,
	// malformed spec, cache hit).
	OutcomeNeutral Outcome = iota
	// OutcomeBackendOK records backend health.
	OutcomeBackendOK
	// OutcomeBackendFailure records a qualifying backend failure (rank
	// death or its cascade).
	OutcomeBackendFailure
)

// Controller composes the guard mechanisms behind one Admit/Observe
// API. All methods are safe for concurrent use; a nil *Controller is a
// valid no-op that admits everything.
type Controller struct {
	limiter   *Limiter
	breakers  *BreakerSet
	estimator *WaitEstimator
}

// New builds a controller.
func New(cfg Config) *Controller {
	c := &Controller{
		limiter:   newLimiter(cfg.Limiter),
		estimator: newWaitEstimator(len(classFractions)),
	}
	if !cfg.DisableBreaker {
		c.breakers = newBreakerSet(cfg.Breaker)
	}
	return c
}

// Admit runs the full admission pipeline, in shed order:
//
//  1. breaker — an open backend fails fast (503-shaped), a half-open
//     one grants its single probe, which then bypasses the shed checks
//     (a probe that could be shed would never resolve the breaker);
//  2. AIMD limit — the class's fraction of the adaptive limit against
//     current in-flight work, so lower classes shed first;
//  3. deadline — the estimated queue wait against the job's timeout,
//     so work that would expire unserved is rejected at the door.
func (c *Controller) Admit(req Request) Verdict {
	if c == nil {
		return Verdict{Allow: true}
	}
	if c.breakers != nil && req.BackendKey != "" {
		v := c.breakers.Allow(req.BackendKey)
		if !v.Allow {
			return v
		}
		if v.Probe {
			return v
		}
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

// ObserveDone feeds one settled job back: total submit-to-settle
// latency (the limiter's signal), success, backend outcome and whether
// the job was a half-open probe. The execution-time argument is ignored.
func (c *Controller) ObserveDone(class Class, key string, latency, _ time.Duration, ok bool, outcome Outcome, probe bool) {
	if c == nil {
		return
	}
	c.limiter.Observe(latency, ok)
	if c.breakers != nil && outcome != OutcomeNeutral {
		c.breakers.Record(key, outcome == OutcomeBackendOK, probe)
	}
}

// ReleaseProbe hands a granted probe slot back without an outcome — the
// probe job was never executed (cancelled while queued, cache-served).
// Without this the half-open breaker would wait forever on a probe that
// will never report.
func (c *Controller) ReleaseProbe(key string) {
	if c == nil || c.breakers == nil {
		return
	}
	c.breakers.Record(key, false, true)
}

// State is a JSON-shaped snapshot of the controller for /stats and
// /readyz.
type State struct {
	// Limit is the current AIMD admission limit.
	Limit int `json:"limit"`
	// BaselineMS is the moving latency baseline in milliseconds.
	BaselineMS float64 `json:"baseline_ms"`
	// BreakersOpen counts backends currently rejecting.
	BreakersOpen int `json:"breakers_open"`
	// BreakerTrips counts lifetime closed-to-open transitions.
	BreakerTrips uint64 `json:"breaker_trips"`
	// Breakers lists every non-closed (or failure-accumulating) breaker.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
}

// State snapshots the controller.
func (c *Controller) State() State {
	if c == nil {
		return State{}
	}
	return State{
		Limit:        c.limiter.Limit(),
		BaselineMS:   c.limiter.Baseline() * 1000,
		BreakersOpen: c.breakers.OpenCount(),
		BreakerTrips: c.breakers.Trips(),
		Breakers:     c.breakers.Snapshot(),
	}
}

// OpenBreakers reports how many backends are currently rejecting.
func (c *Controller) OpenBreakers() int {
	if c == nil {
		return 0
	}
	return c.breakers.OpenCount()
}
