package algo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/cube"
	"repro/internal/morph"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/vec"
	"repro/internal/vtime"
)

// This file implements the morphological classifier of Algorithm 5
// (Hetero-MORPH, the AMEE scheme): each worker iterates erosion/dilation
// over its partition accumulating the morphological eccentricity index,
// proposes its c highest-MEI pixels as endmember candidates, the master
// fuses them into a unique set of p <= c spectrally distinct endmembers,
// and every pixel is labeled with its most similar endmember by SAD.
//
// The parallel version gives each partition overlap borders of
// radius*iterations lines (step 1 of Algorithm 5): redundant computation
// that removes all inter-processor communication from the windowing loop.

// MorphParams configures the morphological classifier.
type MorphParams struct {
	// Classes is the number c of classes to extract.
	Classes int
	// Iterations is I_max, the number of erosion/dilation rounds
	// (the paper uses 5).
	Iterations int
	// Radius is the structuring element radius (1 = the 3x3 kernel B).
	Radius int
	// Theta is the SAD threshold above which two candidate endmembers
	// are considered distinct when the master fuses worker proposals.
	Theta float64
	// MinSupport is the minimum fraction of a worker's owned pixels that
	// must be spectrally similar (within Theta) to a candidate
	// endmember; candidates below the floor — isolated anomalies like
	// the thermal hot spots — are left to the target detectors. Zero
	// (or less) selects 0.5%.
	MinSupport float64
	// MinimalHalo, when true, gives each partition an overlap border of
	// only the kernel radius instead of Radius*Iterations lines. Later
	// iterations then reuse more stale values at partition edges — a
	// quality approximation near the borders — in exchange for far less
	// redundant computation on shallow partitions. The paper's Algorithm
	// 5 does not say which policy its measurements used; its Thunderhead
	// scaling suggests something close to this one (see DESIGN.md).
	MinimalHalo bool
}

// supportRadius is the SAD radius used when counting a candidate's
// population.
func (p MorphParams) supportRadius() float64 { return p.Theta }

// fuseTheta is the dedup threshold applied to *refined* candidates at the
// master. Purity averaging suppresses the per-pixel noise, so refined
// duplicates of one material sit far closer together than raw pixels do;
// a tighter threshold separates genuinely distinct materials that the
// averaging pulled toward each other.
func (p MorphParams) fuseTheta() float64 { return 0.5 * p.Theta }

// filterBySupport keeps candidates whose population within own (pixels
// with SAD <= radius) reaches minCount, preserving order and capping the
// result at c, and refines each survivor to the mean spectrum of its
// supporting pixels — the spatial purity averaging that makes the
// morphological endmembers robust class exemplars rather than single
// noisy extremes. Returns the survivors and the number of SAD
// evaluations.
func filterBySupport(cands []candidate, own *cube.Cube, radius float64, minCount, c int) ([]candidate, int) {
	var out []candidate
	scanned := 0
	bands := own.Bands
	within := spectral.NewLimit(radius)
	// Sixteen candidates are scored per pass over the pixels, packed in a
	// vec.Panel. A block may run past the candidate that fills the cap;
	// the walk below stops there, so the survivors and the count of
	// candidates charged are those of scanning one candidate at a time.
	// The span's pixels are widened, with their norms, once for every
	// block, and each block's signatures once for the span.
	var pix []spectral.Pixel
	w := widenPool.Get().(*widened)
	defer widenPool.Put(w)
	if len(cands) > 0 && c > 0 {
		w.pix, w.buf = resized(w.pix, own.NumPixels()), resized(w.buf, len(own.Data))
		pix = w.pix
		for p := range pix {
			pix[p].V = w.buf[p*bands : (p+1)*bands : (p+1)*bands]
			pix[p].Load(own.PixelAt(p))
		}
	}
	const pass = 16
	w.sums = resized(w.sums, pass*bands)
	for b := 0; b < len(cands) && len(out) < c; b += pass {
		block := cands[b:min(b+pass, len(cands))]
		var sigs vec.Panel
		var norms [pass]float64
		var counts [pass]int
		var means [pass][]float64
		clear(w.sums)
		for k, cd := range block {
			var sig spectral.Pixel
			sig.Load(cd.sig)
			sigs.Add(sig.V)
			norms[k] = sig.Norm
			means[k] = w.sums[k*bands : (k+1)*bands]
		}
		var buf [pass]float64
		dots := buf[:len(block)]
		for p := range pix {
			x := &pix[p]
			sigs.Dots(x.V, 0, dots)
			for k, dot := range dots {
				if within.Holds(dot, x.Norm, norms[k]) {
					counts[k]++
					for i, w := range x.V {
						means[k][i] += w
					}
				}
			}
		}
		for k, cd := range block {
			if len(out) == c {
				break
			}
			scanned++
			if counts[k] < minCount {
				continue
			}
			refined := make([]float32, bands)
			for i := range refined {
				refined[i] = float32(means[k][i] / float64(counts[k]))
			}
			cd.sig = refined
			out = append(out, cd)
		}
	}
	sadCalls := scanned * own.NumPixels()
	if len(out) == 0 {
		// Degenerate partition (every candidate below the floor — e.g. a
		// sliver of a scene where everything is a class border): fall
		// back to the raw candidates rather than failing the run.
		if len(cands) > c {
			cands = cands[:c]
		}
		return cands, sadCalls
	}
	return out, sadCalls
}

// widened holds filterBySupport's scratch: the owned span's pixels
// widened to float64, and the sums of a block's supporting pixels.
type widened struct {
	pix       []spectral.Pixel
	buf, sums []float64
}

// widenPool keeps a widened from one call of filterBySupport to the next,
// and selectPool selectCandidates' order.
var (
	widenPool  = sync.Pool{New: func() any { return new(widened) }}
	selectPool = sync.Pool{New: func() any { return new([]int) }}
)

// resized returns s with length n, in new storage only when s has less
// capacity; its entries are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// DefaultMorphParams mirrors the paper's setup: c=7, I_max=5, 3x3 kernel,
// with the dedup threshold below the smallest inter-class angle of the
// USGS-style materials and a 0.5% support floor.
func DefaultMorphParams() MorphParams {
	return MorphParams{Classes: 7, Iterations: 5, Radius: 1, Theta: 0.06, MinSupport: 0.005}
}

func (p MorphParams) validate(f *cube.Cube) error {
	if f == nil {
		return fmt.Errorf("algo: nil cube")
	}
	if p.Classes < 1 {
		return fmt.Errorf("algo: class count %d < 1", p.Classes)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("algo: iterations %d < 1", p.Iterations)
	}
	if p.Radius < 1 {
		return fmt.Errorf("algo: radius %d < 1", p.Radius)
	}
	if p.Theta <= 0 {
		return fmt.Errorf("algo: non-positive theta %v", p.Theta)
	}
	return nil
}

// Halo returns the overlap border width in lines: Radius*Iterations, the
// rows MEIRange's shrinking region consumes, or just the kernel radius
// under the MinimalHalo policy. Neither is the exact reach of the AMEE
// loop, 2*Radius*Iterations (see morph.MEIRange), so owned pixels near a
// span's edge can score differently than in a whole-cube run.
func (p MorphParams) Halo() int {
	if p.MinimalHalo {
		return p.Radius
	}
	return p.Radius * p.Iterations
}

// selectCandidates picks up to c spectrally distinct pixels in decreasing
// MEI order from the image f holds through the source map src (position
// p holds f's pixel src[p]), restricted to lines [loLine, hiLine), and
// enforcing pairwise SAD > theta. Returns the candidates and the number
// of SAD evaluations.
func selectCandidates(f *cube.Cube, src []int32, scores []float64, loLine, hiLine, c int, theta float64) ([]candidate, int) {
	lo, hi := loLine*f.Samples, hiLine*f.Samples
	buf := selectPool.Get().(*[]int)
	defer selectPool.Put(buf)
	order := (*buf)[:0]
	for p := lo; p < hi; p++ {
		order = append(order, p)
	}
	*buf = order
	// Scores are angles, never NaN, so the order is total.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return a - b
	})
	var out []candidate
	kept := spectral.NewSet(nil)
	within := spectral.NewLimit(theta)
	var px spectral.Pixel
	sadCalls := 0
	for _, p := range order {
		if len(out) == c {
			break
		}
		v := f.PixelAt(int(src[p]))
		// A corrupt pixel is maximally eccentric — SAD pi to every
		// neighbour — so it tops the MEI ranking and, being pi from every
		// accepted candidate, always passes the dedup check. It must never
		// become an endmember: it attracts no support, and the degenerate
		// fallback below would otherwise resurrect it.
		if !spectral.Finite(v) {
			continue
		}
		dup := kept.FirstWithin(px.Load(v), within)
		sadCalls += sadsUntil(dup, kept.Len())
		if dup >= 0 {
			continue
		}
		sig := make([]float32, len(v))
		copy(sig, v)
		l, s := f.Coord(p)
		out = append(out, candidate{line: l, sample: s, score: scores[p], sig: sig, valid: true})
		kept.Add(sig)
	}
	return out, sadCalls
}

// sadsUntil is the number of SAD evaluations the cost model charges for
// a first-match scan over n signatures that stopped at index hit (-1: no
// match, all n evaluated).
func sadsUntil(hit, n int) int {
	if hit >= 0 {
		return hit + 1
	}
	return n
}

// fuseCandidates merges candidate lists into at most c spectrally
// distinct endmembers, scanning in decreasing MEI order (ties broken by
// list order, which is rank order at the master). Returns the fused set
// and the number of SAD evaluations.
func fuseCandidates(cands []candidate, c int, theta float64) ([][]float32, int) {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].score > cands[order[b]].score })
	var out [][]float32
	kept := spectral.NewSet(nil)
	within := spectral.NewLimit(theta)
	var px spectral.Pixel
	sadCalls := 0
	for _, i := range order {
		if len(out) == c {
			break
		}
		if !cands[i].valid {
			continue
		}
		dup := kept.FirstWithin(px.Load(cands[i].sig), within)
		sadCalls += sadsUntil(dup, kept.Len())
		if dup < 0 {
			out = append(out, cands[i].sig)
			kept.Add(cands[i].sig)
		}
	}
	return out, sadCalls
}

// labelBySAD assigns every pixel its most similar endmember. Returns the
// labels and the flop count. Pixels are independent (each writes only its
// own label), so the scan fans out over the par worker budget with
// byte-identical results at any parallelism.
func labelBySAD(f *cube.Cube, endmembers [][]float32) ([]int, float64) {
	np := f.NumPixels()
	labels := make([]int, np)
	set := spectral.NewSet(endmembers)
	par.Ranges(np, par.Chunks(np, 512), func(_, lo, hi int) {
		var px spectral.Pixel
		for p := lo; p < hi; p++ {
			labels[p], _ = set.Nearest(px.Load(f.PixelAt(p)), spectral.NoLimit)
		}
	})
	return labels, float64(np) * float64(len(endmembers)) * spectral.FlopsSAD(f.Bands)
}

// MorphParallel is the Hetero-MORPH of Algorithm 5 (or its homogeneous
// version). It must run inside an mpi program; f is required at the root.
// The result is returned at the root; other ranks return nil.
func MorphParallel(c *mpi.Comm, f *cube.Cube, params MorphParams, ex Exec) (*ClassificationResult, error) {
	if c.Root() {
		if err := params.validate(f); err != nil {
			return nil, err
		}
	}
	s, err := newSchedule(c, f, ex, params.Halo())
	if err != nil {
		return nil, err
	}
	lines, samples, bands := s.shape()

	// Resume: a valid phase snapshot carries the fused endmember set of
	// step 3, so the run skips the AMEE iterations — by far the heaviest
	// phase — and goes straight to labeling.
	endmembers, resumed := resume(c, ex.Checkpoint, ckptMORPH, func(b []byte) ([][]float32, int, bool) {
		em, err := decodeSigs(b)
		return em, 1, err == nil && len(em) > 0 &&
			!slices.ContainsFunc(em, func(sig []float32) bool { return len(sig) != bands })
	})
	if resumed == 0 {
		// Step 2: AMEE on every span including its overlap borders
		// (redundant computation instead of communication). Candidate
		// selection depends on the span's shape, so the phase is pinned.
		window := float64((2*params.Radius + 1) * (2*params.Radius + 1))
		amee := phase{tag: tagCandidate, halo: true, pinned: true,
			fpl: float64(samples) * float64(params.Iterations) * window * spectral.FlopsSAD(bands)}
		parts := s.run(amee, func(view *cube.Cube, owned, halo partition.Span) (any, int) {
			cands := ameeCandidates(c, view, owned, halo, params)
			return cands, len(cands) * candidateBytes(bands)
		})
		// Step 3: the master forms the unique set from the candidates, in
		// span order.
		if c.Root() {
			var flat []candidate
			for _, p := range parts {
				flat = append(flat, payloadOf[[]candidate](p)...)
			}
			var calls int
			endmembers, calls = fuseCandidates(flat, params.Classes, params.fuseTheta())
			c.ComputeFixed(float64(calls)*spectral.FlopsSAD(bands), vtime.Seq)
			if len(endmembers) == 0 {
				return nil, fmt.Errorf("algo: no endmembers found")
			}
			if err := save(c, ex.Checkpoint, ckptMORPH, 1, func() []byte { return encodeSigs(endmembers) }); err != nil {
				return nil, err
			}
		}
	}

	// Step 4: broadcast the unique set; every pixel is labeled by SAD.
	var emBytes int
	if c.Root() {
		emBytes = len(endmembers) * 4 * bands
	}
	endmembers = c.Bcast(0, tagBroadcast, endmembers, emBytes).([][]float32)
	label := phase{tag: tagLabels, fpl: float64(samples) * float64(len(endmembers)) * spectral.FlopsSAD(bands)}
	parts := s.run(label, func(view *cube.Cube, _, _ partition.Span) (any, int) {
		labels, flops := labelBySAD(view, endmembers)
		c.Compute(flops, vtime.Par)
		return labels, int(8 * float64(len(labels)) * c.DataScale())
	})

	// Step 5: the master assembles the final classification matrix.
	if !c.Root() {
		return nil, nil
	}
	return &ClassificationResult{Labels: assembleLabels(c, parts, lines, samples), Classes: endmembers}, nil
}

// ameeCandidates runs the AMEE iterations over view — the lines of halo,
// which contains owned — and proposes the span's endmember candidates in
// global coordinates.
func ameeCandidates(c *mpi.Comm, view *cube.Cube, owned, halo partition.Span, params MorphParams) []candidate {
	// Candidates come only from the owned interior so neighbouring spans
	// never propose the same pixel; MEIRange also shrinks the computed
	// region toward them, by Radius per iteration.
	loLocal := owned.Lo - halo.Lo
	hiLocal := loLocal + owned.Len()
	se := morph.Square(params.Radius)
	var res *morph.MEIResult
	if params.MinimalHalo {
		// The halo is only one kernel radius deep: iterate over the whole
		// local slice, accepting stale edge values on later iterations.
		res = morph.MEI(view, se, params.Iterations)
	} else {
		res = morph.MEIRange(view, se, params.Iterations, loLocal, hiLocal)
	}
	c.Compute(res.Flops, vtime.Par)
	cands, calls := selectCandidates(view, res.Source, res.Scores, loLocal, hiLocal, 6*params.Classes, params.Theta)
	c.ComputeFixed(float64(calls)*spectral.FlopsSAD(view.Bands), vtime.Par)
	own, err := view.Rows(loLocal, hiLocal)
	if err != nil {
		panic(err) // owned lies inside halo by construction
	}
	cands, calls = filterBySupport(cands, own,
		params.supportRadius(), floorCount(params.MinSupport, own.NumPixels()), 3*params.Classes)
	c.Compute(float64(calls)*spectral.FlopsSAD(view.Bands), vtime.Par)
	for i := range cands {
		cands[i].line += halo.Lo
	}
	return cands
}
