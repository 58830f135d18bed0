// Package guard is an AIMD adaptive concurrency limiter behind one
// Admit/ObserveDone API. The serving stack does not use it: overload
// control was measured against the bounded queue's plain 429 and
// removed from the scheduler, the flow engine and hyperhetd (DESIGN.md
// "Job scheduling and serving"). The package remains only because the
// benchmark's layer replay (bench/replay.go) times Admit and
// ObserveDone; it goes with that call site.
//
// The limiter grows the admission limit by one slot per limit's worth of
// on-baseline completions and shrinks it multiplicatively when observed
// job latency exceeds a moving baseline.
package guard

import (
	"sync"
	"time"
)

// Class is a scheduling class index (0 = batch, 1 = interactive).
// Higher classes may fill more of the limit.
type Class int

// classFractions[i] is the fraction of the adaptive limit class i may
// fill: batch is refused at three quarters of it, before interactive.
var classFractions = [...]float64{0.75, 1.0}

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

// limiterConfig bounds the AIMD limiter. Zero values select the
// defaults.
type limiterConfig struct {
	// initial is the starting admission limit (default 16).
	initial int
	// min and max clamp the adaptive limit (defaults 1 and 1024).
	min, max int
}

func (c limiterConfig) withDefaults() limiterConfig {
	if c.initial <= 0 {
		c.initial = 16
	}
	if c.min <= 0 {
		c.min = 1
	}
	if c.max <= 0 {
		c.max = 1024
	}
	if c.min > c.max {
		c.min = c.max
	}
	c.initial = min(max(c.initial, c.min), c.max)
	return c
}

// limiter is an AIMD adaptive concurrency limiter: the effective
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
type limiter struct {
	cfg limiterConfig

	mu       sync.Mutex
	limit    float64
	baseline float64 // seconds; 0 until the first sample
	lastDec  time.Time
}

// newLimiter returns a limiter at cfg.initial.
func newLimiter(cfg limiterConfig) *limiter {
	cfg = cfg.withDefaults()
	return &limiter{cfg: cfg, limit: float64(cfg.initial)}
}

// current returns the admission limit, floored at cfg.min.
func (l *limiter) current() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// observeAt feeds one job completion into the limiter: its
// submit-to-settle latency and whether it completed successfully.
// Failures are not latency signals (a fault-injected crash is fast) and
// leave the limit untouched.
func (l *limiter) observeAt(now time.Time, latency time.Duration, ok bool) {
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
			l.limit = max(l.limit*limiterDecrease, float64(l.cfg.min))
			l.lastDec = now
		}
		return
	}
	// On-baseline completion: additive increase plus baseline tracking.
	l.baseline += baselineAlpha * (sec - l.baseline)
	l.limit = min(l.limit+1/l.limit, float64(l.cfg.max))
}
