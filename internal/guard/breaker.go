package guard

import (
	"sort"
	"sync"
	"time"
)

// BreakerState is one circuit breaker's position in the classic state
// machine.
type BreakerState string

const (
	// BreakerClosed admits everything; consecutive backend failures are
	// counted and trip the breaker at the threshold.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen rejects everything until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen admits exactly one probe; its outcome closes or
	// re-opens the breaker. Everything else is rejected meanwhile.
	BreakerHalfOpen BreakerState = "half-open"
)

// maxBreakerKeys bounds the tracked backend keys; beyond it, unknown
// keys are admitted untracked so a key-cardinality attack cannot grow
// memory.
const maxBreakerKeys = 256

// BreakerConfig parameterizes a breaker set. Zero values select the
// defaults.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips a closed
	// breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker rejects before letting one
	// probe through (default 5s; tests shorten it).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// breaker is one backend's state.
type breaker struct {
	state        BreakerState
	consecutive  int       // consecutive qualifying failures while closed
	openedAt     time.Time // when the breaker last opened
	probeInFlite bool      // a half-open probe has been granted and not yet resolved
	trips        uint64    // lifetime closed->open transitions
}

// BreakerStatus is one breaker's JSON-shaped snapshot.
type BreakerStatus struct {
	Key          string       `json:"key"`
	State        BreakerState `json:"state"`
	Consecutive  int          `json:"consecutive_failures,omitempty"`
	Trips        uint64       `json:"trips,omitempty"`
	RetryAfterMS int64        `json:"retry_after_ms,omitempty"`
}

// BreakerSet is a keyed family of circuit breakers — one per backend,
// where a backend key names a (network, fault-profile) combination.
// All methods are safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*breaker
}

// newBreakerSet returns an empty set.
func newBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*breaker)}
}

// Allow decides admission for one submission to key. The verdict is
// allow (possibly marked as the half-open probe) or a ReasonBreakerOpen
// denial with the remaining cooldown as Retry-After.
func (s *BreakerSet) Allow(key string) Verdict { return s.allowAt(time.Now(), key) }

func (s *BreakerSet) allowAt(now time.Time, key string) Verdict {
	if s == nil || key == "" {
		return Verdict{Allow: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		if len(s.m) >= maxBreakerKeys {
			return Verdict{Allow: true} // untracked: cardinality cap
		}
		b = &breaker{state: BreakerClosed}
		s.m[key] = b
	}
	switch b.state {
	case BreakerClosed:
		return Verdict{Allow: true}
	case BreakerOpen:
		if wait := b.openedAt.Add(s.cfg.Cooldown).Sub(now); wait > 0 {
			return Verdict{Reason: ReasonBreakerOpen, RetryAfter: wait}
		}
		// Cooldown over: half-open, this caller is the probe.
		b.state = BreakerHalfOpen
		b.probeInFlite = true
		return Verdict{Allow: true, Probe: true}
	default: // BreakerHalfOpen
		if !b.probeInFlite {
			b.probeInFlite = true
			return Verdict{Allow: true, Probe: true}
		}
		return Verdict{Reason: ReasonBreakerOpen, RetryAfter: s.cfg.Cooldown}
	}
}

// Record feeds one finished job's outcome back: ok is backend health
// (completed fine), !ok a qualifying backend failure (rank death or
// cascade). probe marks the job as the half-open probe whose outcome
// settles the breaker. Outcomes that are neither (cancellations,
// malformed specs) must not be recorded.
func (s *BreakerSet) Record(key string, ok, probe bool) { s.recordAt(time.Now(), key, ok, probe) }

func (s *BreakerSet) recordAt(now time.Time, key string, ok, probe bool) {
	if s == nil || key == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, found := s.m[key]
	if !found {
		return
	}
	if probe {
		b.probeInFlite = false
	}
	switch b.state {
	case BreakerClosed:
		if ok {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.consecutive >= s.cfg.Threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
		}
	case BreakerHalfOpen:
		// Only the probe's outcome settles a half-open breaker; a
		// straggler admitted before the trip must not flip it.
		if !probe {
			return
		}
		if ok {
			b.state = BreakerClosed
			b.consecutive = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
		}
	case BreakerOpen:
		// Stragglers finishing after the trip: ignored.
	}
}

// OpenCount returns how many breakers are currently rejecting (open, or
// half-open with the probe slot taken).
func (s *BreakerSet) OpenCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.m {
		if b.state == BreakerOpen || (b.state == BreakerHalfOpen && b.probeInFlite) {
			n++
		}
	}
	return n
}

// Trips returns the lifetime closed-to-open transition count across all
// keys.
func (s *BreakerSet) Trips() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, b := range s.m {
		n += b.trips
	}
	return n
}

// Snapshot returns every non-closed breaker's status, sorted by key.
// Closed breakers with no failure streak are elided — a healthy fleet
// snapshots empty.
func (s *BreakerSet) Snapshot() []BreakerStatus {
	return s.snapshotAt(time.Now())
}

func (s *BreakerSet) snapshotAt(now time.Time) []BreakerStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []BreakerStatus
	for key, b := range s.m {
		if b.state == BreakerClosed && b.consecutive == 0 {
			continue
		}
		st := BreakerStatus{Key: key, State: b.state, Consecutive: b.consecutive, Trips: b.trips}
		if b.state == BreakerOpen {
			if wait := b.openedAt.Add(s.cfg.Cooldown).Sub(now); wait > 0 {
				st.RetryAfterMS = wait.Milliseconds()
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
