package guard

import (
	"sync"
	"time"
)

// Bucket is a token bucket for burst smoothing: Capacity tokens,
// refilled continuously at Rate tokens per second. An empty bucket
// denies with the time until the next token, which becomes the
// Retry-After hint.
type Bucket struct {
	mu       sync.Mutex
	capacity float64
	rate     float64 // tokens per second
	tokens   float64
	last     time.Time
}

// NewBucket returns a full bucket. Non-positive capacity or rate
// disables the bucket: Take always succeeds.
func NewBucket(capacity int, rate float64) *Bucket {
	return &Bucket{capacity: float64(capacity), rate: rate, tokens: float64(capacity)}
}

// Take consumes one token, reporting success and, on denial, the wait
// until one refills.
func (b *Bucket) Take() (bool, time.Duration) { return b.takeAt(time.Now()) }

func (b *Bucket) takeAt(now time.Time) (bool, time.Duration) {
	if b == nil || b.capacity <= 0 || b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// WaitEstimator prices the expected queue wait of a new submission, per
// class. Each dispatch teaches it the observed per-position wait (the
// job's time in queue divided by how many submissions sat ahead of it
// when it was admitted), folded into an EWMA; the estimate for a new
// submission is that per-slot cost times its own queue position. The
// estimate self-calibrates to worker count, job mix and job size
// without modelling any of them.
type WaitEstimator struct {
	mu      sync.Mutex
	alpha   float64
	perSlot []float64 // seconds per queue position, by class
}

// NewWaitEstimator returns an estimator over nClasses classes (alpha
// 0.2 when non-positive).
func NewWaitEstimator(nClasses int, alpha float64) *WaitEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &WaitEstimator{alpha: alpha, perSlot: make([]float64, nClasses)}
}

// Observe records one dispatched job: it waited `wait` with `ahead`
// submissions in front of it at admission time.
func (e *WaitEstimator) Observe(class Class, wait time.Duration, ahead int) {
	if e == nil || wait < 0 {
		return
	}
	if ahead < 1 {
		ahead = 1
	}
	sample := wait.Seconds() / float64(ahead)
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(class) < 0 || int(class) >= len(e.perSlot) {
		return
	}
	if e.perSlot[class] == 0 {
		e.perSlot[class] = sample
		return
	}
	e.perSlot[class] += e.alpha * (sample - e.perSlot[class])
}

// Estimate prices a submission that would sit behind `ahead` queued
// submissions of its class and above. Zero before the first observation
// — an empty estimator never rejects.
func (e *WaitEstimator) Estimate(class Class, ahead int) time.Duration {
	if e == nil || ahead < 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(class) < 0 || int(class) >= len(e.perSlot) {
		return 0
	}
	return time.Duration(e.perSlot[class] * float64(ahead+1) * float64(time.Second))
}
