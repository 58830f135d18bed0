package guard

import (
	"testing"
	"time"
)

func TestLimiterDefaults(t *testing.T) {
	l := newLimiter(limiterConfig{})
	if got := l.current(); got != 16 {
		t.Fatalf("default initial limit = %d, want 16", got)
	}
	if b := l.baseline; b != 0 {
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
		{"limiter cooldown (s)", limiterCooldown.Seconds(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestLimiterAdditiveIncrease(t *testing.T) {
	l := newLimiter(limiterConfig{initial: 4, max: 8})
	now := time.Unix(0, 0)
	// First sample sets the baseline without moving the limit.
	l.observeAt(now, 100*time.Millisecond, true)
	if got := l.current(); got != 4 {
		t.Fatalf("limit after baseline sample = %d, want 4", got)
	}
	// ~4 on-baseline completions = one "RTT" = one extra slot.
	for i := 0; i < 5; i++ {
		l.observeAt(now, 100*time.Millisecond, true)
	}
	if got := l.current(); got != 5 {
		t.Fatalf("limit after one window of healthy completions = %d, want 5", got)
	}
	// Growth clamps at Max.
	for i := 0; i < 200; i++ {
		l.observeAt(now, 100*time.Millisecond, true)
	}
	if got := l.current(); got != 8 {
		t.Fatalf("limit after sustained health = %d, want clamped 8", got)
	}
}

func TestLimiterMultiplicativeDecrease(t *testing.T) {
	l := newLimiter(limiterConfig{initial: 10})
	now := time.Unix(1000, 0)
	l.observeAt(now, 100*time.Millisecond, true) // baseline = 0.1s
	// 3x baseline exceeds the 2.0 tolerance: one decrease.
	l.observeAt(now.Add(time.Millisecond), 300*time.Millisecond, true)
	if got := l.current(); got != 7 { // 10 * 0.7
		t.Fatalf("limit after overload signal = %d, want 7", got)
	}
	// A second slow completion inside the cooldown must not shrink again.
	l.observeAt(now.Add(2*time.Millisecond), 300*time.Millisecond, true)
	if got := l.current(); got != 7 {
		t.Fatalf("limit shrank inside cooldown: %d, want 7", got)
	}
	// Past the cooldown it may shrink again, clamped at Min.
	for i := 0; i < 20; i++ {
		l.observeAt(now.Add(time.Duration(i+2)*time.Second), 300*time.Millisecond, true)
	}
	if got := l.current(); got != 1 {
		t.Fatalf("limit after sustained overload = %d, want floor 1", got)
	}
}

func TestLimiterIgnoresFailures(t *testing.T) {
	l := newLimiter(limiterConfig{initial: 10})
	now := time.Unix(0, 0)
	l.observeAt(now, 10*time.Millisecond, true)
	// A fault-injected crash is fast and unsuccessful: not a latency signal.
	l.observeAt(now, 10*time.Hour, false)
	if got := l.current(); got != 10 {
		t.Fatalf("failure moved the limit: %d, want 10", got)
	}
	if b := l.baseline; b != 0.01 {
		t.Fatalf("failure moved the baseline: %v, want 0.01", b)
	}
}

func TestControllerNilSafe(t *testing.T) {
	var c *Controller
	if !c.Admit(Request{Class: 1, InFlight: 1 << 20}) {
		t.Fatal("nil controller denied")
	}
	c.ObserveDone(0, "", time.Second, time.Second, true, OutcomeNeutral, false)
}

func TestControllerShedOrdering(t *testing.T) {
	// Pin the limit at 8: batch is refused at 6 (0.75x), interactive at 8.
	c := &Controller{limiter: newLimiter(limiterConfig{initial: 8, min: 8, max: 8})}
	for _, tc := range []struct {
		class    Class
		inFlight int
		want     bool
	}{
		{0, 5, true},
		{0, 6, false},
		{1, 7, true},
		{1, 8, false},
		// Out-of-range classes clamp instead of panicking.
		{-1, 0, true},
		{9, 7, true},
	} {
		if got := c.Admit(Request{Class: tc.class, InFlight: tc.inFlight}); got != tc.want {
			t.Errorf("class %d at %d/8 admitted = %v, want %v", tc.class, tc.inFlight, got, tc.want)
		}
	}
}
