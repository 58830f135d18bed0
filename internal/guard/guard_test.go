package guard

import (
	"fmt"
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
		{"breaker key cap", maxBreakerKeys, 256},
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
	l := newLimiter(LimiterConfig{Initial: 10, Cooldown: time.Second})
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

func TestBreakerLifecycle(t *testing.T) {
	s := newBreakerSet(BreakerConfig{Threshold: 3, Cooldown: time.Second})
	now := time.Unix(0, 0)
	key := "netA|clean"

	// Closed admits; sub-threshold failures keep it closed.
	for i := 0; i < 2; i++ {
		if v := s.allowAt(now, key); !v.Allow {
			t.Fatalf("closed breaker denied at failure %d", i)
		}
		s.recordAt(now, key, false, false)
	}
	// A success resets the streak.
	s.recordAt(now, key, true, false)
	for i := 0; i < 2; i++ {
		s.recordAt(now, key, false, false)
	}
	if v := s.allowAt(now, key); !v.Allow {
		t.Fatal("breaker tripped below threshold after reset")
	}
	// Third consecutive failure trips it.
	s.recordAt(now, key, false, false)
	v := s.allowAt(now, key)
	if v.Allow {
		t.Fatal("open breaker admitted")
	}
	if v.Reason != ReasonBreakerOpen {
		t.Fatalf("reason = %q, want breaker-open", v.Reason)
	}
	if v.RetryAfter <= 0 || v.RetryAfter > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", v.RetryAfter)
	}
	if got := s.OpenCount(); got != 1 {
		t.Fatalf("open count = %d, want 1", got)
	}
	if got := s.Trips(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// Cooldown over: exactly one probe is granted, everyone else denied.
	later := now.Add(2 * time.Second)
	v = s.allowAt(later, key)
	if !v.Allow || !v.Probe {
		t.Fatalf("post-cooldown verdict = %+v, want probe admission", v)
	}
	if v2 := s.allowAt(later, key); v2.Allow {
		t.Fatal("second caller admitted while probe in flight")
	}
	// A non-probe straggler's failure must not settle the half-open state.
	s.recordAt(later, key, false, false)
	// Probe success closes the breaker.
	s.recordAt(later, key, true, true)
	if v := s.allowAt(later, key); !v.Allow || v.Probe {
		t.Fatalf("verdict after probe success = %+v, want plain admission", v)
	}

	// Trip again, probe fails, breaker re-opens.
	for i := 0; i < 3; i++ {
		s.recordAt(later, key, false, false)
	}
	later2 := later.Add(2 * time.Second)
	if v := s.allowAt(later2, key); !v.Probe {
		t.Fatalf("expected probe admission, got %+v", v)
	}
	s.recordAt(later2, key, false, true)
	if v := s.allowAt(later2, key); v.Allow {
		t.Fatal("breaker admitted right after failed probe")
	}
	if got := s.Trips(); got != 3 {
		t.Fatalf("trips = %d, want 3", got)
	}
}

func TestBreakerKeyCap(t *testing.T) {
	s := newBreakerSet(BreakerConfig{})
	for i := 0; i < maxBreakerKeys; i++ {
		if v := s.Allow(fmt.Sprintf("k%d", i)); !v.Allow {
			t.Fatalf("key %d denied", i)
		}
	}
	// Beyond the cap, unknown keys are admitted untracked: nothing is
	// evicted to make room for them.
	if v := s.Allow("over"); !v.Allow {
		t.Fatal("over-cap key denied")
	}
	for i := 0; i < 3; i++ {
		s.Record("over", false, false)
	}
	if v := s.Allow("over"); !v.Allow {
		t.Fatal("untracked key tripped a breaker")
	}
	if len(s.m) != maxBreakerKeys {
		t.Fatalf("tracked %d keys, want the cap %d", len(s.m), maxBreakerKeys)
	}
	// A key tracked before the cap filled still trips.
	for i := 0; i < 3; i++ {
		s.Record("k0", false, false)
	}
	if v := s.Allow("k0"); v.Allow {
		t.Fatal("tracked key did not trip after the cap filled")
	}
}

func TestBreakerSnapshot(t *testing.T) {
	s := newBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	now := time.Unix(0, 0)
	if snap := s.snapshotAt(now); len(snap) != 0 {
		t.Fatalf("healthy snapshot = %v, want empty", snap)
	}
	s.allowAt(now, "bad")
	s.recordAt(now, "bad", false, false)
	s.recordAt(now, "bad", false, false)
	s.allowAt(now, "good")
	s.recordAt(now, "good", true, false)
	snap := s.snapshotAt(now.Add(time.Second))
	if len(snap) != 1 || snap[0].Key != "bad" || snap[0].State != BreakerOpen {
		t.Fatalf("snapshot = %+v, want one open 'bad'", snap)
	}
	if snap[0].RetryAfterMS <= 0 {
		t.Fatalf("open snapshot retry_after_ms = %d, want > 0", snap[0].RetryAfterMS)
	}
}

func TestControllerNilSafe(t *testing.T) {
	var c *Controller
	if v := c.Admit(Request{Class: 1, InFlight: 1 << 20}); !v.Allow {
		t.Fatal("nil controller denied")
	}
	c.ObserveDispatch(0, time.Second, 1)
	c.ObserveDone(0, "k", time.Second, time.Second, true, OutcomeBackendOK, false)
	c.ReleaseProbe("k")
	if st := c.State(); st.Limit != 0 {
		t.Fatalf("nil controller state = %+v, want zero", st)
	}
	if c.OpenBreakers() != 0 {
		t.Fatal("nil controller reports open breakers")
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

func TestControllerBreakerIntegration(t *testing.T) {
	c := New(Config{Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour}})
	key := "netB|plan42"
	for i := 0; i < 2; i++ {
		if v := c.Admit(Request{Class: 1, BackendKey: key}); !v.Allow {
			t.Fatalf("pre-trip admit %d denied", i)
		}
		c.ObserveDone(1, key, 10*time.Millisecond, 10*time.Millisecond, false, OutcomeBackendFailure, false)
	}
	v := c.Admit(Request{Class: 1, BackendKey: key})
	if v.Allow || v.Reason != ReasonBreakerOpen {
		t.Fatalf("post-trip verdict = %+v, want breaker-open", v)
	}
	if c.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1", c.OpenBreakers())
	}
	// A sibling backend is unaffected.
	if v := c.Admit(Request{Class: 1, BackendKey: "netB|clean"}); !v.Allow {
		t.Fatalf("sibling backend denied: %+v", v)
	}
	st := c.State()
	if st.BreakersOpen != 1 || st.BreakerTrips != 1 || len(st.Breakers) != 1 {
		t.Fatalf("state = %+v, want one open breaker with one trip", st)
	}
}

func TestControllerProbeBypassesShedding(t *testing.T) {
	// Limit pinned at 1 and in-flight saturated: a normal submit sheds,
	// but the half-open probe must still be admitted or the breaker can
	// never close.
	c := New(Config{
		Limiter: LimiterConfig{Initial: 1, Min: 1, Max: 1},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Nanosecond},
	})
	key := "netC|plan"
	if v := c.Admit(Request{Class: 1, BackendKey: key}); !v.Allow {
		t.Fatal("initial admit denied")
	}
	c.ObserveDone(1, key, time.Millisecond, time.Millisecond, false, OutcomeBackendFailure, false)
	time.Sleep(time.Millisecond) // let the 1ns cooldown lapse
	v := c.Admit(Request{Class: 1, BackendKey: key, InFlight: 100})
	if !v.Allow || !v.Probe {
		t.Fatalf("saturated probe verdict = %+v, want probe admission", v)
	}
	// ReleaseProbe frees the slot for a later probe without closing it.
	c.ReleaseProbe(key)
	v = c.Admit(Request{Class: 1, BackendKey: key, InFlight: 100})
	if !v.Allow || !v.Probe {
		t.Fatalf("verdict after probe release = %+v, want fresh probe", v)
	}
	// Probe success closes the breaker; now the limit shed applies again.
	c.ObserveDone(1, key, time.Millisecond, time.Millisecond, true, OutcomeBackendOK, true)
	if v := c.Admit(Request{Class: 1, BackendKey: key, InFlight: 100}); v.Allow {
		t.Fatalf("closed-breaker saturated admit = %+v, want limit shed", v)
	}
}
