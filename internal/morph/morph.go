// Package morph implements the extended mathematical morphology for
// hyperspectral imagery behind the Hetero-MORPH classifier (Algorithm 5):
// the cumulative spectral angle distance D_B over a spatial structuring
// element (Eq. 2), vector erosion and dilation choosing the most highly
// mixed / most highly pure pixel of the neighbourhood (Eqs. 3-4), and the
// morphological eccentricity index MEI (Eq. 5) accumulated over repeated
// dilations — the AMEE endmember extraction scheme of Plaza et al.
package morph

import (
	"container/heap"
	"fmt"

	"repro/internal/cube"
	"repro/internal/par"
	"repro/internal/spectral"
)

// StructuringElement is a rectangular spatial kernel B of
// (2*RadiusL+1) x (2*RadiusS+1) pixels.
type StructuringElement struct {
	RadiusL, RadiusS int
}

// Square returns the square structuring element of the given radius
// (radius 1 is the customary 3x3 kernel).
func Square(radius int) StructuringElement {
	if radius < 0 {
		panic(fmt.Sprintf("morph: negative radius %d", radius))
	}
	return StructuringElement{RadiusL: radius, RadiusS: radius}
}

// Size returns the number of pixels in the kernel.
func (se StructuringElement) Size() int {
	return (2*se.RadiusL + 1) * (2*se.RadiusS + 1)
}

// DistanceMap returns D_B for every pixel of f: the sum of spectral angle
// distances between the pixel and every pixel in its B-neighbourhood
// (Eq. 2), with the neighbourhood clamped at the image border. High D_B
// marks spectrally mixed pixels, low D_B spectrally pure ones relative to
// their surroundings.
func DistanceMap(f *cube.Cube, se StructuringElement) []float64 {
	dist, _ := distanceMapRange(f, se, 0, f.Lines)
	return dist
}

// argOver scans the clamped B-neighbourhood of (l,s) and returns the
// coordinates with minimal (min=true) or maximal D_B.
func argOver(f *cube.Cube, dist []float64, se StructuringElement, l, s int, min bool) (int, int) {
	bestL, bestS := l, s
	best := dist[f.FlatIndex(l, s)]
	for dl := -se.RadiusL; dl <= se.RadiusL; dl++ {
		nl := l + dl
		if nl < 0 || nl >= f.Lines {
			continue
		}
		for ds := -se.RadiusS; ds <= se.RadiusS; ds++ {
			ns := s + ds
			if ns < 0 || ns >= f.Samples {
				continue
			}
			d := dist[f.FlatIndex(nl, ns)]
			if (min && d < best) || (!min && d > best) {
				best, bestL, bestS = d, nl, ns
			}
		}
	}
	return bestL, bestS
}

// ErodeAt returns the coordinates selected by vector erosion at (l,s):
// the neighbourhood pixel with minimal cumulative distance — the most
// highly mixed pixel (Eq. 3). dist must be DistanceMap(f, se).
func ErodeAt(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (int, int) {
	return argOver(f, dist, se, l, s, true)
}

// DilateAt returns the coordinates selected by vector dilation at (l,s):
// the neighbourhood pixel with maximal cumulative distance — the most
// highly pure pixel (Eq. 4).
func DilateAt(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (int, int) {
	return argOver(f, dist, se, l, s, false)
}

// Dilate returns the morphological dilation of the whole cube: each output
// pixel is the neighbourhood pixel selected by DilateAt. The input is
// unchanged.
func Dilate(f *cube.Cube, se StructuringElement) *cube.Cube {
	dist := DistanceMap(f, se)
	out := cube.MustNew(f.Lines, f.Samples, f.Bands)
	for l := 0; l < f.Lines; l++ {
		for s := 0; s < f.Samples; s++ {
			nl, ns := DilateAt(f, dist, se, l, s)
			out.SetPixel(l, s, f.Pixel(nl, ns))
		}
	}
	return out
}

// MEIResult carries the outcome of the AMEE iteration.
type MEIResult struct {
	// Scores is the per-pixel morphological eccentricity index,
	// accumulated with max over iterations.
	Scores []float64
	// Final is the cube after the I_max dilations: every pixel holds the
	// most spectrally pure signature of its (grown) neighbourhood.
	// Endmember candidates are read from Final at high-MEI locations —
	// the high score marks *where* materials meet; the dilated pixel
	// supplies the pure signature of the dominant material there.
	Final *cube.Cube
	// Flops is the floating-point operation count of the computation,
	// for the virtual-time cost model.
	Flops float64
}

// MEI runs the AMEE loop of Algorithm 5 step 2 on the whole cube: at each
// of imax iterations it computes the distance map, updates every pixel's
// MEI with the SAD between the pixels selected by erosion and dilation
// (Eq. 5), and replaces f by its dilation for the next iteration. The
// input cube is not modified.
func MEI(f *cube.Cube, se StructuringElement, imax int) *MEIResult {
	return MEIRange(f, se, imax, 0, f.Lines)
}

// MEIRange is MEI restricted to producing valid results for lines
// [ownedLo, ownedHi): the computed region starts at the full reach of the
// remaining iterations and shrinks toward the owned rows as iterations
// complete. A worker whose partition carries halo rows therefore pays for
// the halo only as long as the morphological reach still needs it, which
// substantially reduces the redundant-computation overhead of overlap
// borders on short partitions.
func MEIRange(f *cube.Cube, se StructuringElement, imax, ownedLo, ownedHi int) *MEIResult {
	if imax < 1 {
		panic(fmt.Sprintf("morph: imax %d < 1", imax))
	}
	if ownedLo < 0 || ownedHi > f.Lines || ownedLo >= ownedHi {
		panic(fmt.Sprintf("morph: owned range [%d,%d) of %d lines", ownedLo, ownedHi, f.Lines))
	}
	cur := f.Clone()
	scores := make([]float64, f.NumPixels())
	var flops float64
	cols := float64(f.Samples)
	sadCost := spectral.FlopsSAD(f.Bands)
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > f.Lines {
			return f.Lines
		}
		return v
	}
	for it := 0; it < imax; it++ {
		// Rows whose output must be valid after this iteration: the
		// remaining (imax-1-it) dilations each reach RadiusL rows.
		reach := se.RadiusL * (imax - 1 - it)
		outLo, outHi := clamp(ownedLo-reach), clamp(ownedHi+reach)
		// The distance map is consulted for rows within RadiusL of the
		// output region.
		mapLo, mapHi := clamp(outLo-se.RadiusL), clamp(outHi+se.RadiusL)
		dist, norms := distanceMapRange(cur, se, mapLo, mapHi)
		flops += float64(mapHi-mapLo) * cols * float64(se.Size()-1) * sadCost
		next := cur.Clone()
		// Each row writes only its own score and output entries, so the
		// erode/dilate/MEI pass fans out over rows byte-identically.
		par.Lines(outHi-outLo, rowGrain(cur), func(_, clo, chi int) {
			for l := outLo + clo; l < outLo+chi; l++ {
				for s := 0; s < cur.Samples; s++ {
					el, es := ErodeAt(cur, dist, se, l, s)
					dl, ds := DilateAt(cur, dist, se, l, s)
					// Both pixels lie within the map's rows, so the map
					// already holds their norms.
					mei := spectral.Angle(spectral.Dot(cur.Pixel(el, es), cur.Pixel(dl, ds)),
						norms[cur.FlatIndex(el, es)], norms[cur.FlatIndex(dl, ds)])
					p := cur.FlatIndex(l, s)
					if mei > scores[p] {
						scores[p] = mei
					}
					next.SetPixel(l, s, cur.Pixel(dl, ds))
				}
			}
		})
		flops += float64(outHi-outLo) * cols * (2*float64(se.Size()) + sadCost)
		cur = next
	}
	return &MEIResult{Scores: scores, Final: cur, Flops: flops}
}

// offsets lists the kernel's neighbour offsets (dl, ds) in the row-major
// order Eq. 2 sums them in, the centre left out. The list is symmetric:
// offsets[j] is the negation of offsets[len-1-j], so its second half —
// the offsets that follow the centre — names every unordered neighbour
// pair exactly once.
func (se StructuringElement) offsets() [][2]int {
	out := make([][2]int, 0, se.Size()-1)
	for dl := -se.RadiusL; dl <= se.RadiusL; dl++ {
		for ds := -se.RadiusS; ds <= se.RadiusS; ds++ {
			if dl != 0 || ds != 0 {
				out = append(out, [2]int{dl, ds})
			}
		}
	}
	return out
}

// chunkWork is the least work, in samples x bands, worth handing to a
// helper goroutine: below it waking the helper costs more than the rows
// it takes (see CHANGES.md PR 16 for the measurement).
const chunkWork = 1 << 16

// rowGrain returns the number of rows of f per chunk of the row fan-outs
// below: enough rows to hold chunkWork. It depends on the cube's geometry
// alone, so chunk boundaries are the same at any worker budget.
func rowGrain(f *cube.Cube) int {
	return max(1, (chunkWork+f.Samples*f.Bands-1)/(f.Samples*f.Bands))
}

// distanceMapRange computes D_B for rows [lo, hi) only; entries of dist
// outside the range are zero and must not be consulted. It also returns
// every pixel's squared norm, valid for the rows within the kernel's
// reach of [lo, hi).
//
// SAD(a, b) and SAD(b, a) are the same bits — the products and na*nb
// commute — so each unordered neighbour pair is evaluated once, by the
// pixel that comes first in row-major order, in three steps: a row
// fan-out takes every pixel's norm and its dot products with the
// neighbours that follow it (four per pass of spectral.Dot4); a second
// turns the dot products into angles, now that both norms are known;
// then each pixel's D_B is summed from its own pairs and its earlier
// neighbours', in Eq. 2's order. Rows are independent within a step
// (each writes only its own entries), so results are byte-identical at
// any parallelism.
func distanceMapRange(f *cube.Cube, se StructuringElement, lo, hi int) (dist, norms []float64) {
	offs := se.offsets()
	k := len(offs) / 2
	fwd := offs[k:]
	rlo, rhi := max(0, lo-se.RadiusL), min(f.Lines, hi+se.RadiusL)
	norms = make([]float64, f.NumPixels())
	pairs := make([]float64, f.NumPixels()*k)
	grain := rowGrain(f)
	par.Lines(rhi-rlo, grain, func(_, clo, chi int) {
		pairDots(f, fwd, rlo+clo, rlo+chi, hi, norms, pairs)
	})
	par.Lines(hi-rlo, grain, func(_, clo, chi int) {
		pairAngles(f, fwd, rlo+clo, rlo+chi, norms, pairs)
	})
	dist = make([]float64, f.NumPixels())
	for l := lo; l < hi; l++ {
		for s := 0; s < f.Samples; s++ {
			p := f.FlatIndex(l, s)
			var sum float64
			for j, o := range offs {
				nl, ns := l+o[0], s+o[1]
				if nl < 0 || nl >= f.Lines || ns < 0 || ns >= f.Samples {
					continue
				}
				if j >= k {
					sum += pairs[p*k+j-k]
				} else {
					// An earlier neighbour holds the pair, under the
					// negated offset.
					sum += pairs[f.FlatIndex(nl, ns)*k+k-1-j]
				}
			}
			dist[p] = sum
		}
	}
	return dist, norms
}

// pairDots fills norms for rows [lo, hi) and, for the rows before
// pairHi, pairs with each pixel's dot products against its fwd
// neighbours (len(fwd) slots per pixel; a slot whose neighbour falls
// outside the image is left unspecified).
func pairDots(f *cube.Cube, fwd [][2]int, lo, hi, pairHi int, norms, pairs []float64) {
	k := len(fwd)
	for l := lo; l < hi; l++ {
		for s := 0; s < f.Samples; s++ {
			p := f.FlatIndex(l, s)
			center := f.Pixel(l, s)
			if l >= pairHi || k == 0 {
				norms[p] = spectral.SqNorm(center)
				continue
			}
			for b := 0; b < k; b += 4 {
				// A spare or out-of-image slot scores the centre against
				// itself; the result is never read.
				nb := [4][]float32{center, center, center, center}
				for i := 0; i < 4 && b+i < k; i++ {
					nl, ns := l+fwd[b+i][0], s+fwd[b+i][1]
					if nl < f.Lines && ns >= 0 && ns < f.Samples {
						nb[i] = f.Pixel(nl, ns)
					}
				}
				var d [4]float64
				norms[p], d[0], d[1], d[2], d[3] = spectral.Dot4(center, nb[0], nb[1], nb[2], nb[3])
				copy(pairs[p*k+b:(p+1)*k], d[:])
			}
		}
	}
}

// pairAngles turns the dot products pairDots left for rows [lo, hi) into
// spectral angles.
func pairAngles(f *cube.Cube, fwd [][2]int, lo, hi int, norms, pairs []float64) {
	k := len(fwd)
	for l := lo; l < hi; l++ {
		for s := 0; s < f.Samples; s++ {
			p := f.FlatIndex(l, s)
			for i, o := range fwd {
				nl, ns := l+o[0], s+o[1]
				if nl < f.Lines && ns >= 0 && ns < f.Samples {
					pairs[p*k+i] = spectral.Angle(pairs[p*k+i], norms[p], norms[f.FlatIndex(nl, ns)])
				}
			}
		}
	}
}

// FlopsMEI estimates the cost of MEI over np pixels with the given kernel
// and band count for imax iterations, matching the accounting MEI itself
// performs.
func FlopsMEI(np, seSize, bands, imax int) float64 {
	sadCost := spectral.FlopsSAD(bands)
	perIter := float64(np)*float64(seSize-1)*sadCost + float64(np)*(2*float64(seSize)+sadCost)
	return float64(imax) * perIter
}

// topkHeap is a bounded min-heap over flat indices: the root is the
// weakest element kept so far, where "weaker" means lower score, or the
// same score at a higher index (lower indices win ties).
type topkHeap struct {
	idx    []int
	scores []float64
}

func (h *topkHeap) Len() int { return len(h.idx) }

func (h *topkHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.scores[a] != h.scores[b] {
		return h.scores[a] < h.scores[b]
	}
	return a > b
}

func (h *topkHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }

func (h *topkHeap) Push(x any) { h.idx = append(h.idx, x.(int)) }

func (h *topkHeap) Pop() any {
	n := len(h.idx)
	v := h.idx[n-1]
	h.idx = h.idx[:n-1]
	return v
}

// stronger reports whether candidate index i beats the current heap root
// (the weakest kept element).
func (h *topkHeap) stronger(i int) bool {
	r := h.idx[0]
	if h.scores[i] != h.scores[r] {
		return h.scores[i] > h.scores[r]
	}
	return i < r
}

// TopK returns the flat indices of the k highest scores, in decreasing
// score order (ties broken by lower index for determinism). k is clamped
// to len(scores). It runs in O(n log k) using a bounded min-heap whose
// root is the weakest element retained so far.
func TopK(scores []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	h := &topkHeap{idx: make([]int, 0, k), scores: scores}
	for i := range scores {
		if h.Len() < k {
			heap.Push(h, i)
		} else if h.stronger(i) {
			h.idx[0] = i
			heap.Fix(h, 0)
		}
	}
	out := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(int)
	}
	return out
}
