// Package fault defines deterministic, reproducible failure plans for the
// simulated heterogeneous cluster: rank crashes at a virtual time,
// transient link slowdowns over a virtual-time window, and per-rank
// compute degradation. Package mpi consults a plan at every Send, Recv,
// Compute and Checkpoint charge, so an injected failure fires at exactly the
// same virtual instant on every replay — virtual clocks are a function of
// the platform description and the program only, never of the host
// scheduler.
//
// Plans exist to exercise the recovery machinery above the message layer:
// the scheduler's attempt loop, which reruns a failed job on the same
// platform or, with recovery, re-partitions the survivors.
// The master/worker literature the paper builds on (Dongarra et al. 2006)
// treats worker loss as a first-class design axis; a deterministic
// injector is what makes that axis testable.
//
// # Attempts
//
// Failure events carry an attempt number because recovery means rerunning:
// a crash pinned to attempt 1 fails the first execution and spares the
// retry, which is how a transient fault is modelled. Attempt numbering is
// 1-based; an event's zero Attempt means 1 (first attempt only) and a
// negative Attempt applies to every attempt (a permanent fault — retries
// keep failing until the rank is excluded from the platform).
package fault

import (
	"fmt"
	"math/rand"
	"strings"
)

// Crash kills one rank at a virtual time: the rank's next charge that
// reaches At panics with a typed rank-failure error, and the surviving
// ranks cascade-abort when they next touch the world.
type Crash struct {
	// Rank is the victim.
	Rank int `json:"rank"`
	// At is the virtual time in seconds at which the rank dies.
	At float64 `json:"at"`
	// Attempt selects which execution attempt the crash applies to
	// (1-based; 0 means 1, negative means every attempt).
	Attempt int `json:"attempt,omitempty"`
}

// LinkSlow is a transient link degradation: transfers between Src and Dst
// (in either direction) that start inside [From, To) cost Factor times
// their nominal virtual time.
type LinkSlow struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// Factor multiplies the transfer cost; must be > 0 (values > 1 slow
	// the link, values < 1 would speed it up).
	Factor  float64 `json:"factor"`
	Attempt int     `json:"attempt,omitempty"`
}

// Degrade is a per-rank compute slowdown: flop and checkpoint charges that
// start inside [From, To) on Rank cost Factor times their nominal
// virtual time (a thermally throttled or contended processor).
type Degrade struct {
	Rank    int     `json:"rank"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	Factor  float64 `json:"factor"`
	Attempt int     `json:"attempt,omitempty"`
}

// Plan is one reproducible failure scenario. The zero value injects
// nothing. Plans are immutable once handed to a world and safe for
// concurrent readers.
type Plan struct {
	Crashes   []Crash    `json:"crashes,omitempty"`
	LinkSlows []LinkSlow `json:"link_slowdowns,omitempty"`
	Degrades  []Degrade  `json:"degradations,omitempty"`
}

// applies reports whether an event pinned to eventAttempt fires during
// execution attempt n (1-based).
func applies(eventAttempt, n int) bool {
	if eventAttempt < 0 {
		return true
	}
	if eventAttempt == 0 {
		eventAttempt = 1
	}
	return eventAttempt == n
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || len(p.Crashes)+len(p.LinkSlows)+len(p.Degrades) == 0
}

// Validate rejects malformed plans against a world of the given size.
func (p *Plan) Validate(ranks int) error {
	if p == nil {
		return nil
	}
	for _, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= ranks {
			return fmt.Errorf("fault: crash names rank %d (world size %d)", c.Rank, ranks)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash at negative virtual time %v", c.At)
		}
	}
	for _, l := range p.LinkSlows {
		if l.Src < 0 || l.Src >= ranks || l.Dst < 0 || l.Dst >= ranks {
			return fmt.Errorf("fault: link slowdown names pair (%d,%d) (world size %d)", l.Src, l.Dst, ranks)
		}
		if l.Factor <= 0 {
			return fmt.Errorf("fault: link slowdown factor %v must be positive", l.Factor)
		}
		if l.To < l.From || l.From < 0 {
			return fmt.Errorf("fault: link slowdown window [%v,%v) invalid", l.From, l.To)
		}
	}
	for _, d := range p.Degrades {
		if d.Rank < 0 || d.Rank >= ranks {
			return fmt.Errorf("fault: degradation names rank %d (world size %d)", d.Rank, ranks)
		}
		if d.Factor <= 0 {
			return fmt.Errorf("fault: degradation factor %v must be positive", d.Factor)
		}
		if d.To < d.From || d.From < 0 {
			return fmt.Errorf("fault: degradation window [%v,%v) invalid", d.From, d.To)
		}
	}
	return nil
}

// CrashTime returns the earliest virtual time at which rank dies during
// execution attempt n, and whether any crash applies.
func (p *Plan) CrashTime(attempt, rank int) (float64, bool) {
	if p == nil {
		return 0, false
	}
	var at float64
	found := false
	for _, c := range p.Crashes {
		if c.Rank != rank || !applies(c.Attempt, attempt) {
			continue
		}
		if !found || c.At < at {
			at, found = c.At, true
		}
	}
	return at, found
}

// ComputeFactor returns the compute-cost multiplier for a charge starting
// at virtual time now on rank during attempt n (1 when no degradation is
// active). Overlapping windows multiply.
func (p *Plan) ComputeFactor(attempt, rank int, now float64) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, d := range p.Degrades {
		if d.Rank == rank && applies(d.Attempt, attempt) && now >= d.From && now < d.To {
			f *= d.Factor
		}
	}
	return f
}

// LinkFactor returns the transfer-cost multiplier for a message leaving
// at virtual time now between src and dst (direction-agnostic) during
// attempt n. Overlapping windows multiply.
func (p *Plan) LinkFactor(attempt, src, dst int, now float64) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, l := range p.LinkSlows {
		sameLink := (l.Src == src && l.Dst == dst) || (l.Src == dst && l.Dst == src)
		if sameLink && applies(l.Attempt, attempt) && now >= l.From && now < l.To {
			f *= l.Factor
		}
	}
	return f
}

// Without returns a copy of the plan with every event renumbered for a
// world from which the given rank has been removed: events naming the
// excluded rank are dropped, and higher ranks shift down by one. Core's
// degraded-mode recovery uses it when rerunning on the survivors.
func (p *Plan) Without(rank int) *Plan {
	if p == nil {
		return nil
	}
	shift := func(r int) (int, bool) {
		switch {
		case r == rank:
			return 0, false
		case r > rank:
			return r - 1, true
		default:
			return r, true
		}
	}
	out := &Plan{}
	for _, c := range p.Crashes {
		if r, ok := shift(c.Rank); ok {
			c.Rank = r
			out.Crashes = append(out.Crashes, c)
		}
	}
	for _, l := range p.LinkSlows {
		s, okS := shift(l.Src)
		d, okD := shift(l.Dst)
		if okS && okD {
			l.Src, l.Dst = s, d
			out.LinkSlows = append(out.LinkSlows, l)
		}
	}
	for _, d := range p.Degrades {
		if r, ok := shift(d.Rank); ok {
			d.Rank = r
			out.Degrades = append(out.Degrades, d)
		}
	}
	return out
}

// String renders a compact human-readable summary.
func (p *Plan) String() string {
	if p.Empty() {
		return "fault.Plan(empty)"
	}
	var b strings.Builder
	b.WriteString("fault.Plan{")
	for i, c := range p.Crashes {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "crash(rank %d @ %gs)", c.Rank, c.At)
	}
	if len(p.LinkSlows) > 0 {
		fmt.Fprintf(&b, " %d link slowdowns", len(p.LinkSlows))
	}
	if len(p.Degrades) > 0 {
		fmt.Fprintf(&b, " %d degradations", len(p.Degrades))
	}
	b.WriteString("}")
	return b.String()
}

// RandomConfig tunes Random.
type RandomConfig struct {
	// Ranks is the world size the plan targets (required).
	Ranks int
	// Horizon is the virtual-time span in seconds inside which events are
	// placed (default 10).
	Horizon float64
	// Crashes, LinkSlows, Degrades count the events to generate
	// (defaults 1, 1, 1). Crashes spare rank 0: killing the master is
	// unrecoverable by design, and chaos plans are for exercising
	// recovery.
	Crashes, LinkSlows, Degrades int
	// MaxFactor bounds slowdown factors (default 8; factors are drawn
	// uniformly from (1, MaxFactor]).
	MaxFactor float64
}

func (cfg RandomConfig) withDefaults() RandomConfig {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10
	}
	if cfg.Crashes == 0 {
		cfg.Crashes = 1
	}
	if cfg.LinkSlows == 0 {
		cfg.LinkSlows = 1
	}
	if cfg.Degrades == 0 {
		cfg.Degrades = 1
	}
	if cfg.MaxFactor <= 1 {
		cfg.MaxFactor = 8
	}
	return cfg
}

// Random generates a reproducible plan from a seed: the same (seed, cfg)
// always yields the identical plan, which — combined with deterministic
// virtual time — makes whole chaos experiments replayable.
func Random(seed int64, cfg RandomConfig) (*Plan, error) {
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("fault: random plan needs >= 2 ranks, got %d", cfg.Ranks)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	for i := 0; i < cfg.Crashes; i++ {
		p.Crashes = append(p.Crashes, Crash{
			Rank: 1 + rng.Intn(cfg.Ranks-1), // spare the master
			At:   rng.Float64() * cfg.Horizon,
		})
	}
	for i := 0; i < cfg.LinkSlows; i++ {
		src := rng.Intn(cfg.Ranks)
		dst := rng.Intn(cfg.Ranks - 1)
		if dst >= src {
			dst++
		}
		from := rng.Float64() * cfg.Horizon
		p.LinkSlows = append(p.LinkSlows, LinkSlow{
			Src: src, Dst: dst,
			From:   from,
			To:     from + rng.Float64()*(cfg.Horizon-from),
			Factor: 1 + rng.Float64()*(cfg.MaxFactor-1),
		})
	}
	for i := 0; i < cfg.Degrades; i++ {
		from := rng.Float64() * cfg.Horizon
		p.Degrades = append(p.Degrades, Degrade{
			Rank:   rng.Intn(cfg.Ranks),
			From:   from,
			To:     from + rng.Float64()*(cfg.Horizon-from),
			Factor: 1 + rng.Float64()*(cfg.MaxFactor-1),
		})
	}
	return p, nil
}
