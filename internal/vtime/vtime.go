// Package vtime implements virtual-time accounting for the simulated
// heterogeneous cluster.
//
// Every simulated processor owns a Clock. Real computation executes in
// ordinary goroutines; the clock is advanced by an analytic cost model
// (floating-point operations times the processor cycle-time, message bytes
// times link capacity) rather than by wall time. This reproduces the timing
// methodology of Plaza (CLUSTER 2006): execution times, COM/SEQ/PAR
// breakdowns and load-imbalance ratios are functions of the platform
// description only, so they are deterministic and independent of the host
// machine the simulation happens to run on.
//
// The three accounting buckets mirror Table 6 of the paper:
//
//   - COM: time spent moving data between processors.
//   - SEQ: computations performed by the root with no other parallel task
//     active in the system.
//   - PAR: all remaining computation, including the time in which workers
//     (or the root) sit idle at synchronization points.
package vtime

import (
	"fmt"
	"math"
)

// Category labels where a span of virtual time is charged.
type Category int

const (
	// Com is inter-processor communication time.
	Com Category = iota
	// Seq is root-only sequential computation time.
	Seq
	// Par is parallel computation time (busy computing).
	Par
	// Idle is time spent waiting at synchronization points for a peer to
	// produce data. The paper folds idle into its PAR column ("the times
	// in which the workers remain idle"); keeping it separate here lets
	// Table 6 report PAR = Par+Idle on the root while Table 7's
	// load-imbalance ratios use busy time (Now - Idle), which is what
	// distinguishes an overloaded processor from one waiting at a
	// barrier.
	Idle
	numCategories
)

// String returns the table label used by the paper for the category.
func (c Category) String() string {
	switch c {
	case Com:
		return "COM"
	case Seq:
		return "SEQ"
	case Par:
		return "PAR"
	case Idle:
		return "IDLE"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Clock tracks the virtual time of one simulated processor.
//
// A Clock is owned by the goroutine simulating its processor and is not safe
// for concurrent use; cross-processor interactions happen through message
// timestamps (see package mpi), never by sharing a Clock.
type Clock struct {
	now       float64
	buckets   [numCategories]float64
	cycleTime float64 // seconds per megaflop
}

// NewClock returns a clock for a processor with the given cycle-time,
// expressed in seconds per megaflop as in Table 1 of the paper.
func NewClock(cycleTimeSecPerMflop float64) *Clock {
	if cycleTimeSecPerMflop <= 0 || math.IsNaN(cycleTimeSecPerMflop) || math.IsInf(cycleTimeSecPerMflop, 0) {
		panic(fmt.Sprintf("vtime: invalid cycle-time %v", cycleTimeSecPerMflop))
	}
	return &Clock{cycleTime: cycleTimeSecPerMflop}
}

// CycleTime reports the processor cycle-time in seconds per megaflop.
func (c *Clock) CycleTime() float64 { return c.cycleTime }

// Now reports the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Busy reports Now minus idle time: the processor's actual run time for
// load-balance purposes.
func (c *Clock) Busy() float64 { return c.now - c.buckets[Idle] }

// Add advances the clock by d seconds, charged to category cat.
// Negative or non-finite durations are programming errors and panic.
func (c *Clock) Add(d float64, cat Category) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("vtime: invalid duration %v", d))
	}
	c.now += d
	c.buckets[cat] += d
}

// AdvanceTo moves the clock forward to time t, charging the gap to category
// cat. If t is not later than the current time the clock is unchanged; a
// processor can never move backwards in virtual time.
func (c *Clock) AdvanceTo(t float64, cat Category) {
	if t <= c.now {
		return
	}
	c.Add(t-c.now, cat)
}

// ComputeDegraded charges flops like Compute but multiplies the cost by a
// degradation factor: 1 is the processor's nominal speed, factors above 1
// model a transiently slowed processor (thermal throttling, contention, or
// an injected fault — see package fault). The factor must be positive and
// finite.
func (c *Clock) ComputeDegraded(flops, factor float64, cat Category) {
	if flops < 0 || math.IsNaN(flops) || math.IsInf(flops, 0) {
		panic(fmt.Sprintf("vtime: invalid flop count %v", flops))
	}
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("vtime: invalid degradation factor %v", factor))
	}
	c.Add(flops/1e6*c.cycleTime*factor, cat)
}

// Snapshot is an immutable copy of a clock's state, safe to share across
// goroutines once the simulation has finished.
type Snapshot struct {
	Now  float64 // final virtual time, seconds
	Com  float64
	Seq  float64
	Par  float64
	Idle float64
}

// Snapshot captures the clock's current state.
func (c *Clock) Snapshot() Snapshot {
	return Snapshot{
		Now:  c.now,
		Com:  c.buckets[Com],
		Seq:  c.buckets[Seq],
		Par:  c.buckets[Par],
		Idle: c.buckets[Idle],
	}
}

// Busy returns Now minus idle time.
func (s Snapshot) Busy() float64 { return s.Now - s.Idle }
