package guard

import (
	"sync"
	"time"
)

// waitAlpha is the EWMA weight of a fresh per-slot queue-wait sample.
const waitAlpha = 0.2

// WaitEstimator prices the expected queue wait of a new submission, per
// class. Each dispatch teaches it the observed per-position wait (the
// job's time in queue divided by how many submissions sat ahead of it
// when it was admitted), folded into an EWMA; the estimate for a new
// submission is that per-slot cost times its own queue position. The
// estimate self-calibrates to worker count, job mix and job size
// without modelling any of them.
type WaitEstimator struct {
	mu      sync.Mutex
	perSlot []float64 // seconds per queue position, by class
}

// newWaitEstimator returns an estimator over nClasses classes.
func newWaitEstimator(nClasses int) *WaitEstimator {
	return &WaitEstimator{perSlot: make([]float64, nClasses)}
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
	e.perSlot[class] += waitAlpha * (sample - e.perSlot[class])
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
