// Package partition implements the data partitioning strategies of
// Section 2.1 of the paper, foremost the Workload Estimation Algorithm
// (WEA, Algorithm 1): spatial-domain decomposition of the hyperspectral
// cube into contiguous row blocks whose sizes are proportional to each
// processor's speed and bounded by its local memory, with recursive
// redistribution of the excess when a bound is hit.
//
// The hybrid strategy the paper adopts — blocks of spatially adjacent
// pixel vectors that retain their full spectral content — corresponds to
// splitting the cube by lines: every pixel's signature stays on one
// processor, so per-pixel kernels need no communication, and windowing
// kernels need only overlap borders (WithOverlap).
//
// (Step 2 of the paper's Algorithm 1 writes alpha_i =
// floor((1/w_i)/sum(1/w_j)), whose floor is typographically spurious — it
// would always be zero; we use exact proportions with largest-remainder
// rounding to whole rows.)
package partition

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/platform"
)

// Span is a half-open range of cube lines [Lo, Hi) assigned to one
// processor. An empty span (Lo == Hi) means the processor received no
// rows, which can happen when there are more processors than lines.
type Span struct{ Lo, Hi int }

// Len returns the number of lines in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Grow extends the span by halo lines on each side, clamped to
// [0, lines). An empty span stays empty.
func (s Span) Grow(halo, lines int) Span {
	if s.Len() == 0 {
		return s
	}
	return Span{Lo: max(s.Lo-halo, 0), Hi: min(s.Hi+halo, lines)}
}

// NotIn returns the number of the span's lines that lie outside o.
func (s Span) NotIn(o Span) int {
	return s.Len() - max(min(s.Hi, o.Hi)-max(s.Lo, o.Lo), 0)
}

// ErrInsufficientMemory reports that the processors' combined memory
// bounds cannot hold the image.
var ErrInsufficientMemory = errors.New("partition: image exceeds the aggregate memory bound")

// MemoryFraction is the share of a processor's main memory assumed
// available for image data (the remainder covers the OS, the program and
// working buffers).
const MemoryFraction = 0.5

// MaxLines returns the largest number of image lines (of the given
// samples x bands geometry, float32 samples) that fit in the processor's
// memory bound. Degenerate geometries and non-positive budgets yield 0;
// the result is clamped to MaxInt32, so the arithmetic stays in float64
// and cannot overflow however large the declared memory is.
func MaxLines(p platform.Processor, samples, bands int) int {
	if samples <= 0 || bands <= 0 {
		return 0
	}
	bytesPerLine := float64(samples) * float64(bands) * 4
	budget := MemoryFraction * float64(p.MemoryMB) * (1 << 20)
	if !(budget > 0) { // also catches NaN
		return 0
	}
	lines := budget / bytesPerLine
	if lines >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(lines)
}

// Strategy produces one span per processor for a cube geometry.
type Strategy interface {
	// Partition assigns contiguous line ranges, in rank order, covering
	// [0, lines) exactly.
	Partition(lines, samples, bands int, procs []platform.Processor) ([]Span, error)
}

// Heterogeneous is the WEA of Algorithm 1: workload proportional to
// processor speed (1/w_i), bounded by local memory.
type Heterogeneous struct{}

// Partition implements Strategy.
func (Heterogeneous) Partition(lines, samples, bands int, procs []platform.Processor) ([]Span, error) {
	weights := make([]float64, len(procs))
	for i, p := range procs {
		weights[i] = p.Speed()
	}
	return partitionByWeight(lines, samples, bands, procs, weights)
}

// Homogeneous is the paper's homogeneous version of WEA: every processor
// receives an equal share (alpha_i = 1/P), regardless of its actual
// speed. On a heterogeneous platform this is exactly the mismatch the
// paper's Tables 5-7 quantify.
type Homogeneous struct{}

// Partition implements Strategy.
func (Homogeneous) Partition(lines, samples, bands int, procs []platform.Processor) ([]Span, error) {
	weights := make([]float64, len(procs))
	for i := range weights {
		weights[i] = 1
	}
	return partitionByWeight(lines, samples, bands, procs, weights)
}

// partitionByWeight apportions lines proportionally to weights subject to
// per-processor memory caps, then lays the assigned counts out as
// contiguous spans in rank order.
func partitionByWeight(lines, samples, bands int, procs []platform.Processor, weights []float64) ([]Span, error) {
	if lines <= 0 || samples <= 0 || bands <= 0 {
		return nil, fmt.Errorf("partition: invalid geometry %dx%dx%d", lines, samples, bands)
	}
	if len(procs) == 0 {
		return nil, errors.New("partition: no processors")
	}
	if len(weights) != len(procs) {
		return nil, errors.New("partition: weight/processor count mismatch")
	}
	caps := make([]int, len(procs))
	var capacity int
	for i, p := range procs {
		caps[i] = MaxLines(p, samples, bands)
		capacity += caps[i]
	}
	if capacity < lines {
		return nil, fmt.Errorf("%w: %d lines, capacity %d", ErrInsufficientMemory, lines, capacity)
	}
	counts, err := apportion(lines, weights, caps)
	if err != nil {
		return nil, err
	}
	return layout(counts), nil
}

// ByWeight splits lines into contiguous spans, in rank order, whose
// lengths are proportional to weights (largest-remainder rounding, no
// memory bounds). A zero weight gets an empty span. Negative, NaN or
// infinite weights, no weights, lines outside [0, MaxInt32] (the bound
// MaxLines clamps to), or lines to place with no positive weight are
// errors.
func ByWeight(lines int, weights []float64) ([]Span, error) {
	if lines < 0 || lines > math.MaxInt32 || len(weights) == 0 {
		return nil, fmt.Errorf("partition: %d lines over %d weights", lines, len(weights))
	}
	caps := make([]int, len(weights))
	for i := range caps {
		caps[i] = lines
	}
	counts, err := apportion(lines, weights, caps)
	if errors.Is(err, ErrInsufficientMemory) {
		// Every cap holds all the lines: only a zero weight mass gets here.
		return nil, errors.New("partition: no positive weight")
	}
	if err != nil {
		return nil, err
	}
	return layout(counts), nil
}

// layout turns per-rank line counts into contiguous spans in rank order.
func layout(counts []int) []Span {
	spans := make([]Span, len(counts))
	at := 0
	for i, c := range counts {
		spans[i] = Span{Lo: at, Hi: at + c}
		at += c
	}
	return spans
}

// apportion distributes total units proportionally to weights with
// per-index caps, using largest-remainder rounding and recursive
// redistribution of capped excess (step 3b of Algorithm 1).
func apportion(total int, weights []float64, caps []int) ([]int, error) {
	n := len(weights)
	counts := make([]int, n)
	active := make([]bool, n)
	var wsum float64
	for i, w := range weights {
		// Non-finite weights (a zero or NaN cycle-time yields ±Inf/NaN
		// speed) would turn the quota arithmetic into undefined
		// float-to-int conversions; reject them up front.
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("partition: invalid weight %v", w)
		}
		if w > 0 && caps[i] > 0 {
			active[i] = true
			wsum += w
		}
	}
	if math.IsInf(wsum, 1) {
		// Finite weights near MaxFloat64 can sum past it, which would zero
		// every quota. Rescaling by the largest keeps the proportions;
		// a finite mass keeps its exact arithmetic.
		top := slices.Max(weights)
		scaled := make([]float64, n)
		wsum = 0
		for i, w := range weights {
			scaled[i] = w / top
			active[i] = scaled[i] > 0 && caps[i] > 0
			if active[i] {
				wsum += scaled[i]
			}
		}
		weights = scaled
	}
	remaining := total
	for remaining > 0 {
		if wsum == 0 {
			return nil, ErrInsufficientMemory
		}
		// Proportional quotas over the active set for the remaining rows.
		type frac struct {
			idx  int
			part float64
		}
		assignedThisRound := 0
		fracs := make([]frac, 0, n)
		for i := range weights {
			if !active[i] {
				continue
			}
			// Multiply by the ratio, not the raw weight: weights[i]/wsum
			// is <= 1, so the quota can never overflow float64 even for
			// extreme (finite) weights.
			quota := float64(remaining) * (weights[i] / wsum)
			base := int(quota)
			room := caps[i] - counts[i]
			if base > room {
				base = room
			}
			counts[i] += base
			assignedThisRound += base
			if counts[i] < caps[i] {
				fracs = append(fracs, frac{idx: i, part: quota - float64(int(quota))})
			}
		}
		remaining -= assignedThisRound
		// Largest remainders take the leftover single rows.
		sort.Slice(fracs, func(a, b int) bool {
			if fracs[a].part != fracs[b].part {
				return fracs[a].part > fracs[b].part
			}
			return fracs[a].idx < fracs[b].idx
		})
		for _, f := range fracs {
			if remaining == 0 {
				break
			}
			if counts[f.idx] < caps[f.idx] {
				counts[f.idx]++
				remaining--
			}
		}
		// Retire saturated processors and recompute the weight mass; the
		// loop recurses over whatever is still unassigned.
		wsum = 0
		progress := false
		for i := range weights {
			if active[i] && counts[i] >= caps[i] {
				active[i] = false
				progress = true
			}
			if active[i] {
				wsum += weights[i]
			}
		}
		if remaining > 0 && !progress && assignedThisRound == 0 {
			// No capacity progress and nothing assigned: give single rows
			// to the fastest active processors to guarantee termination.
			idxs := activeIndexesByWeight(weights, active)
			if len(idxs) == 0 {
				return nil, ErrInsufficientMemory
			}
			for _, i := range idxs {
				if remaining == 0 {
					break
				}
				if counts[i] < caps[i] {
					counts[i]++
					remaining--
				}
			}
		}
	}
	return counts, nil
}

func activeIndexesByWeight(weights []float64, active []bool) []int {
	var idxs []int
	for i := range weights {
		if active[i] {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(a, b int) bool {
		if weights[idxs[a]] != weights[idxs[b]] {
			return weights[idxs[a]] > weights[idxs[b]]
		}
		return idxs[a] < idxs[b]
	})
	return idxs
}

// WithOverlap extends each span by halo lines on each side (Span.Grow),
// producing the overlap borders Algorithm 5 (Hetero-MORPH) uses to trade
// redundant computation for communication.
func WithOverlap(spans []Span, halo, lines int) []Span {
	if halo < 0 {
		panic(fmt.Sprintf("partition: negative halo %d", halo))
	}
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = s.Grow(halo, lines)
	}
	return out
}

// Validate checks that spans tile [0, lines) contiguously in rank order.
func Validate(spans []Span, lines int) error {
	at := 0
	for i, s := range spans {
		if s.Lo != at || s.Hi < s.Lo {
			return fmt.Errorf("partition: span %d = [%d,%d) does not continue at %d", i, s.Lo, s.Hi, at)
		}
		at = s.Hi
	}
	if at != lines {
		return fmt.Errorf("partition: spans cover %d of %d lines", at, lines)
	}
	return nil
}
