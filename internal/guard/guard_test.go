package guard

import (
	"testing"
	"time"
)

func TestLimiterDefaults(t *testing.T) {
	l := newLimiter(LimiterConfig{})
	if got := l.Limit(); got != 16 {
		t.Fatalf("default initial limit = %d, want 16", got)
	}
	if b := l.Baseline(); b != 0 {
		t.Fatalf("baseline before samples = %v, want 0", b)
	}
	// The fixed tuning: changing any of these changes admission
	// behaviour, so it is a deliberate edit here too.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"limiter tolerance", limiterTolerance, 2.0},
		{"limiter decrease", limiterDecrease, 0.7},
		{"baseline alpha", baselineAlpha, 0.1},
		{"batch fraction", classFractions[0], 0.75},
		{"interactive fraction", classFractions[1], 1.0},
		{"wait-estimator alpha", waitAlpha, 0.2},
		{"limiter cooldown (s)", limiterCooldown.Seconds(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestLimiterAdditiveIncrease(t *testing.T) {
	l := newLimiter(LimiterConfig{Initial: 4, Max: 8})
	now := time.Unix(0, 0)
	// First sample sets the baseline without moving the limit.
	l.observeAt(now, 100*time.Millisecond, true)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after baseline sample = %d, want 4", got)
	}
	// ~4 on-baseline completions = one "RTT" = one extra slot.
	for i := 0; i < 5; i++ {
		l.observeAt(now, 100*time.Millisecond, true)
	}
	if got := l.Limit(); got != 5 {
		t.Fatalf("limit after one window of healthy completions = %d, want 5", got)
	}
	// Growth clamps at Max.
	for i := 0; i < 200; i++ {
		l.observeAt(now, 100*time.Millisecond, true)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after sustained health = %d, want clamped 8", got)
	}
}

func TestLimiterMultiplicativeDecrease(t *testing.T) {
	l := newLimiter(LimiterConfig{Initial: 10})
	now := time.Unix(1000, 0)
	l.observeAt(now, 100*time.Millisecond, true) // baseline = 0.1s
	// 3x baseline exceeds the 2.0 tolerance: one decrease.
	l.observeAt(now.Add(time.Millisecond), 300*time.Millisecond, true)
	if got := l.Limit(); got != 7 { // 10 * 0.7
		t.Fatalf("limit after overload signal = %d, want 7", got)
	}
	// A second slow completion inside the cooldown must not shrink again.
	l.observeAt(now.Add(2*time.Millisecond), 300*time.Millisecond, true)
	if got := l.Limit(); got != 7 {
		t.Fatalf("limit shrank inside cooldown: %d, want 7", got)
	}
	// Past the cooldown it may shrink again, clamped at Min.
	for i := 0; i < 20; i++ {
		l.observeAt(now.Add(time.Duration(i+2)*time.Second), 300*time.Millisecond, true)
	}
	if got := l.Limit(); got != 1 {
		t.Fatalf("limit after sustained overload = %d, want floor 1", got)
	}
}

func TestLimiterIgnoresFailures(t *testing.T) {
	l := newLimiter(LimiterConfig{Initial: 10})
	now := time.Unix(0, 0)
	l.observeAt(now, 10*time.Millisecond, true)
	// A fault-injected crash is fast and unsuccessful: not a latency signal.
	l.observeAt(now, 10*time.Hour, false)
	if got := l.Limit(); got != 10 {
		t.Fatalf("failure moved the limit: %d, want 10", got)
	}
	if b := l.Baseline(); b != 0.01 {
		t.Fatalf("failure moved the baseline: %v, want 0.01", b)
	}
}

func TestWaitEstimator(t *testing.T) {
	e := newWaitEstimator(2)
	if est := e.Estimate(0, 100); est != 0 {
		t.Fatalf("estimate before observations = %v, want 0 (never reject empty)", est)
	}
	// One job waited 1s behind 4 others: 250ms per slot.
	e.Observe(0, time.Second, 4)
	if est := e.Estimate(0, 3); est != time.Second {
		t.Fatalf("estimate(ahead=3) = %v, want 1s (4 positions x 250ms)", est)
	}
	// The other class is independent.
	if est := e.Estimate(1, 3); est != 0 {
		t.Fatalf("class 1 estimate = %v, want 0", est)
	}
	// Out-of-range classes are ignored, not panics.
	e.Observe(7, time.Second, 1)
	if est := e.Estimate(7, 1); est != 0 {
		t.Fatalf("out-of-range estimate = %v, want 0", est)
	}
}

func TestControllerNilSafe(t *testing.T) {
	var c *Controller
	if v := c.Admit(Request{Class: 1, InFlight: 1 << 20}); !v.Allow {
		t.Fatal("nil controller denied")
	}
	c.ObserveDispatch(0, time.Second, 1)
	c.ObserveDone(0, "", time.Second, time.Second, true, OutcomeNeutral, false)
	if st := c.State(); st.Limit != 0 {
		t.Fatalf("nil controller state = %+v, want zero", st)
	}
}

func TestControllerShedOrdering(t *testing.T) {
	// Pin the limit at 8: batch sheds at 6 (0.75x), interactive at 8.
	c := New(Config{Limiter: LimiterConfig{Initial: 8, Min: 8, Max: 8}})
	if v := c.Admit(Request{Class: 0, InFlight: 5}); !v.Allow {
		t.Fatalf("batch at 5/8 denied: %+v", v)
	}
	v := c.Admit(Request{Class: 0, InFlight: 6})
	if v.Allow || v.Reason != ReasonLimit {
		t.Fatalf("batch at 6/8 verdict = %+v, want limit shed", v)
	}
	if v.RetryAfter <= 0 {
		t.Fatalf("limit shed retry-after = %v, want > 0", v.RetryAfter)
	}
	if v := c.Admit(Request{Class: 1, InFlight: 7}); !v.Allow {
		t.Fatalf("interactive at 7/8 denied: %+v", v)
	}
	if v := c.Admit(Request{Class: 1, InFlight: 8}); v.Allow || v.Reason != ReasonLimit {
		t.Fatalf("interactive at 8/8 verdict = %+v, want limit shed", v)
	}
	// Out-of-range classes clamp instead of panicking.
	if v := c.Admit(Request{Class: -1, InFlight: 0}); !v.Allow {
		t.Fatalf("clamped low class denied: %+v", v)
	}
	if v := c.Admit(Request{Class: 9, InFlight: 7}); !v.Allow {
		t.Fatalf("clamped high class denied: %+v", v)
	}
}

func TestControllerDeadlineShed(t *testing.T) {
	c := New(Config{})
	// Teach the estimator 1s per queue position.
	c.ObserveDispatch(1, time.Second, 1)
	// 10 ahead -> ~11s estimated wait; a 2s timeout is unaffordable.
	v := c.Admit(Request{Class: 1, Timeout: 2 * time.Second, QueuedAhead: 10})
	if v.Allow || v.Reason != ReasonDeadline {
		t.Fatalf("verdict = %+v, want deadline shed", v)
	}
	// A generous timeout is fine, and no timeout is never deadline-shed.
	if v := c.Admit(Request{Class: 1, Timeout: time.Minute, QueuedAhead: 10}); !v.Allow {
		t.Fatalf("affordable deadline denied: %+v", v)
	}
	if v := c.Admit(Request{Class: 1, QueuedAhead: 1 << 20}); !v.Allow {
		t.Fatalf("no-timeout submission deadline-shed: %+v", v)
	}
}
