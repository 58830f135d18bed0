// Dynamic (demand-driven) partitioning: instead of fixing every
// processor's share up front like WEA, a DynamicPlan keeps a frontier of
// unassigned lines and cuts guided chunks off it on request — large
// chunks while much work remains, shrinking toward a grain floor near
// the end — sized by an online Estimator of each rank's observed
// throughput. The estimator is seeded from the platform cycle-time model
// (so the first chunks match WEA's static proportions) and corrected by
// an EWMA over measured chunk times, which is what lets a degraded or
// link-slowed rank shed work mid-round.
package partition

import (
	"fmt"
	"math"
)

// Estimator tracks each rank's effective compute throughput as a
// dimensionless slowdown factor over the platform cycle-time model: 1
// means the rank performs exactly as Table 1 predicts, 2 means half
// speed. Keeping the learned state model-relative (rather than absolute
// lines/sec) lets one estimator carry across phases with very different
// per-line costs — covariance accumulation and max-projection scans
// re-use the same learned slowdowns.
type Estimator struct {
	cycle  []float64 // seconds per megaflop, from the platform model
	factor []float64 // EWMA slowdown; 1 = nominal

	driftSum float64 // sum of |actual-predicted|/predicted
	driftN   int
}

// estimatorAlpha is the EWMA weight of a fresh slowdown observation.
const estimatorAlpha = 0.3

// NewEstimator builds an estimator for the given per-rank cycle times
// (seconds per megaflop, platform.Network.CycleTimes()).
func NewEstimator(cycleTimes []float64) *Estimator {
	e := &Estimator{
		cycle:  append([]float64(nil), cycleTimes...),
		factor: make([]float64, len(cycleTimes)),
	}
	for i := range e.factor {
		e.factor[i] = 1
	}
	return e
}

// Ranks returns the number of ranks the estimator tracks.
func (e *Estimator) Ranks() int { return len(e.cycle) }

// Rate returns rank's estimated throughput in lines per virtual second
// for a phase costing flopsPerLine flops per line. A rank whose estimated
// cost per line is infinite rates 0.
func (e *Estimator) Rate(rank int, flopsPerLine float64) float64 {
	secPerLine := e.secondsPerLine(rank, flopsPerLine)
	if !(secPerLine > 0) {
		return math.Inf(1) // free work: the model says zero cost
	}
	if math.IsInf(secPerLine, 1) {
		return 0
	}
	return 1 / secPerLine
}

// Predict returns the modelled virtual seconds for rank to process lines
// lines at flopsPerLine flops per line.
func (e *Estimator) Predict(rank, lines int, flopsPerLine float64) float64 {
	return float64(lines) * e.secondsPerLine(rank, flopsPerLine)
}

func (e *Estimator) secondsPerLine(rank int, flopsPerLine float64) float64 {
	return flopsPerLine / 1e6 * e.cycle[rank] * e.factor[rank]
}

// Observe folds one measured chunk into rank's slowdown estimate:
// seconds of busy virtual time spent computing lines lines of a phase
// modelled at flopsPerLine flops per line. It also records the relative
// prediction error, the EstimatorDrift reports surface.
func (e *Estimator) Observe(rank, lines int, flopsPerLine, seconds float64) {
	if lines <= 0 || !(seconds >= 0) {
		return
	}
	predicted := e.Predict(rank, lines, flopsPerLine)
	if predicted > 0 {
		e.driftSum += math.Abs(seconds-predicted) / predicted
		e.driftN++
	}
	nominal := float64(lines) * flopsPerLine / 1e6 * e.cycle[rank]
	if !(nominal > 0) {
		return
	}
	observed := seconds / nominal // instantaneous slowdown factor
	e.factor[rank] = (1-estimatorAlpha)*e.factor[rank] + estimatorAlpha*observed
}

// Drift returns the mean relative error between predicted and observed
// chunk times over every observation so far — how far reality has
// drifted from the (EWMA-corrected) model. 0 when nothing was observed.
func (e *Estimator) Drift() float64 {
	if e.driftN == 0 {
		return 0
	}
	return e.driftSum / float64(e.driftN)
}

// DynamicPlan is the frontier of one demand-driven phase: the lines not
// yet granted to any rank. Chunks are cut off the front in request
// order, so the sequence of grants tiles [0, lines) exactly — coverage
// is structural, not bookkeeping.
type DynamicPlan struct {
	lines int
	next  int
}

// chunkGrain is the chunk-size floor in lines, so the grant/report
// overhead cannot dominate a chunk.
const chunkGrain = 4

// guidedFactor is the guided-self-scheduling divisor: each grant takes
// its rank's proportional share of the remaining lines divided by this,
// so early chunks are large and later ones shrink toward the grain.
const guidedFactor = 2

// NewDynamicPlan starts a frontier over lines lines.
func NewDynamicPlan(lines int) *DynamicPlan {
	if lines < 0 {
		panic(fmt.Sprintf("partition: dynamic plan over %d lines", lines))
	}
	return &DynamicPlan{lines: lines}
}

// Remaining returns the lines not yet granted.
func (p *DynamicPlan) Remaining() int { return p.lines - p.next }

// ChunkSize returns the guided chunk length for a requester whose
// estimated throughput is rate out of total aggregate throughput:
// max(chunkGrain, remaining * rate / (guidedFactor * total)), clamped to
// what is left. A zero-rate requester still gets the grain floor — a
// slow rank that asks for work is idle, and chunkGrain lines is the
// smallest useful assignment.
func (p *DynamicPlan) ChunkSize(rate, total float64) int {
	rem := p.Remaining()
	if rem == 0 {
		return 0
	}
	n := chunkGrain
	if total > 0 && rate > 0 {
		share := float64(rem) * (rate / total) / guidedFactor
		if g := int(math.Ceil(share)); g > n {
			n = g
		}
	}
	if n > rem {
		n = rem
	}
	// Don't strand a sub-grain tail for one more round trip.
	if tail := rem - n; tail > 0 && tail < chunkGrain {
		n = rem
	}
	return n
}

// Take cuts the next n lines off the frontier and returns their span.
// It panics if n exceeds the remainder (grants must come from ChunkSize)
// or is non-positive.
func (p *DynamicPlan) Take(n int) Span {
	if n <= 0 || n > p.Remaining() {
		panic(fmt.Sprintf("partition: take %d of %d remaining lines", n, p.Remaining()))
	}
	s := Span{Lo: p.next, Hi: p.next + n}
	p.next = s.Hi
	return s
}
