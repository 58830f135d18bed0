package guard

import "time"

// Config parameterizes a Controller; it has no settings.
type Config struct{}

// Request is one admission question.
type Request struct {
	// Class is the submission's scheduling class.
	Class Class
	// InFlight counts queued plus running work across all classes.
	InFlight int
}

// Outcome is ObserveDone's outcome argument, which the controller
// ignores; OutcomeNeutral is its one value.
type Outcome int

// OutcomeNeutral is the one Outcome.
const OutcomeNeutral Outcome = 0

// Controller puts the limiter behind one Admit/ObserveDone API. All
// methods are safe for concurrent use; a nil *Controller admits
// everything.
type Controller struct {
	limiter *limiter
}

// New builds a controller at the limiter's defaults.
func New(Config) *Controller {
	return &Controller{limiter: newLimiter(limiterConfig{})}
}

// Admit reports whether a submission fits: the class's fraction of the
// adaptive limit against current in-flight work, so lower classes are
// refused first.
func (c *Controller) Admit(req Request) bool {
	if c == nil {
		return true
	}
	cl := min(max(int(req.Class), 0), len(classFractions)-1)
	limit := max(int(float64(c.limiter.current())*classFractions[cl]), 1)
	return req.InFlight < limit
}

// ObserveDone feeds one settled job back: its total submit-to-settle
// latency (the limiter's signal) and whether it completed successfully.
// The class, key, execution-time, outcome and probe arguments are
// ignored.
func (c *Controller) ObserveDone(_ Class, _ string, latency, _ time.Duration, ok bool, _ Outcome, _ bool) {
	if c == nil {
		return
	}
	c.limiter.observeAt(time.Now(), latency, ok)
}
