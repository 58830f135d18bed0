// Package guard is the scheduler's overload-control layer: the
// admission-time and dispatch-time defenses that keep a saturated
// serving stack doing useful work instead of queueing doomed jobs.
//
// It bundles two cooperating mechanisms, both pure control logic (no
// scheduler imports, no I/O):
//
//   - an AIMD adaptive concurrency limiter (Limiter) that grows the
//     effective admission limit by one slot per limit's worth of
//     on-baseline completions and shrinks it multiplicatively when
//     observed job latency exceeds a moving baseline;
//   - deadline admission: a per-class queue-wait estimator
//     (WaitEstimator) that prices a submission's expected time-in-queue,
//     so deadline-carrying jobs whose timeout is already unaffordable
//     are rejected at the door.
//
// Controller composes them behind one Admit/Observe API shaped for
// package sched. Every decision is reported as a Verdict carrying the
// deny reason and a Retry-After hint, which the HTTP layer translates
// to a 429 response.
package guard

import (
	"sync"
	"time"
)

// Class is a scheduling class index: package sched passes its Priority
// values (0 = batch, 1 = interactive). Higher classes shed later and
// dispatch first.
type Class int

// classFractions[i] is the fraction of the adaptive limit class i may
// fill: batch sheds at three quarters of it, before interactive.
var classFractions = [...]float64{0.75, 1.0}

// Reason classifies a denial.
type Reason string

const (
	// ReasonLimit reports the AIMD concurrency limit was reached (for
	// the submission's class: lower classes shed at a fraction of it).
	ReasonLimit Reason = "limit"
	// ReasonDeadline reports the estimated queue wait already exceeded
	// the submission's timeout: the job would expire unserved.
	ReasonDeadline Reason = "deadline"
)

// Verdict is one admission decision.
type Verdict struct {
	// Allow grants admission.
	Allow bool
	// Reason classifies a denial ("" when allowed).
	Reason Reason
	// RetryAfter is the suggested client back-off on denial.
	RetryAfter time.Duration
}

// The limiter's fixed tuning.
const (
	// limiterTolerance is the latency-to-baseline ratio above which a
	// completion is an overload signal.
	limiterTolerance = 2.0
	// limiterDecrease is the multiplicative shrink on an overload signal.
	limiterDecrease = 0.7
	// baselineAlpha is the EWMA weight of a fresh on-baseline latency
	// sample.
	baselineAlpha = 0.1
	// limiterCooldown bounds how often the limit may shrink, so one burst
	// of slow completions costs one decrease, not one per completion.
	limiterCooldown = time.Second
)

// LimiterConfig parameterizes the AIMD limiter. Zero values select the
// documented defaults.
type LimiterConfig struct {
	// Initial is the starting admission limit (default 16).
	Initial int
	// Min and Max clamp the adaptive limit (defaults 1 and 1024).
	Min, Max int
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Initial <= 0 {
		c.Initial = 16
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	return c
}

// Limiter is an AIMD adaptive concurrency limiter: the effective
// admission limit for (queued + running) work, adapted from observed
// job latency against a moving baseline.
//
// Additive increase: every on-baseline completion adds 1/limit slots,
// so the limit grows by one slot per limit's worth of healthy
// completions (one "RTT" in TCP terms). Multiplicative decrease: a
// completion whose latency exceeds baseline*limiterTolerance shrinks the
// limit by limiterDecrease, at most once per limiterCooldown. The
// baseline is an EWMA of on-baseline latencies only, so a slow spell
// widens the limit's definition of "slow" no faster than baselineAlpha
// allows.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	baseline float64 // seconds; 0 until the first sample
	lastDec  time.Time
}

// newLimiter returns a limiter at cfg.Initial.
func newLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// Limit returns the current admission limit, floored at cfg.Min.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Baseline returns the moving latency baseline in seconds (0 before the
// first on-baseline completion).
func (l *Limiter) Baseline() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseline
}

// Observe feeds one job completion into the controller: its
// submit-to-settle latency and whether it completed successfully.
// Failures are not latency signals (a fault-injected crash is fast) and
// leave the limit untouched.
func (l *Limiter) Observe(latency time.Duration, ok bool) {
	l.observeAt(time.Now(), latency, ok)
}

func (l *Limiter) observeAt(now time.Time, latency time.Duration, ok bool) {
	if !ok || latency < 0 {
		return
	}
	sec := latency.Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.baseline == 0 {
		l.baseline = sec
		return
	}
	if sec > l.baseline*limiterTolerance {
		// Overload signal: multiplicative decrease, rate-limited.
		if now.Sub(l.lastDec) >= limiterCooldown {
			l.limit *= limiterDecrease
			if l.limit < float64(l.cfg.Min) {
				l.limit = float64(l.cfg.Min)
			}
			l.lastDec = now
		}
		return
	}
	// On-baseline completion: additive increase plus baseline tracking.
	l.baseline += baselineAlpha * (sec - l.baseline)
	l.limit += 1 / l.limit
	if l.limit > float64(l.cfg.Max) {
		l.limit = float64(l.cfg.Max)
	}
}
