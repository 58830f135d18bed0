// Package morph implements the extended mathematical morphology for
// hyperspectral imagery behind the Hetero-MORPH classifier (Algorithm 5):
// the cumulative spectral angle distance D_B over a spatial structuring
// element (Eq. 2), vector erosion and dilation choosing the most highly
// mixed / most highly pure pixel of the neighbourhood (Eqs. 3-4), and the
// morphological eccentricity index MEI (Eq. 5) accumulated over repeated
// dilations — the AMEE endmember extraction scheme of Plaza et al.
package morph

import (
	"fmt"
	"sync/atomic"

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

// argOver scans the clamped B-neighbourhood of (l,s) once and returns the
// coordinates with minimal and with maximal D_B; each is the first met on
// ties, the centre before all others.
func argOver(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (minL, minS, maxL, maxS int) {
	minL, minS, maxL, maxS = l, s, l, s
	lo := dist[f.FlatIndex(l, s)]
	hi := lo
	for nl := max(0, l-se.RadiusL); nl <= min(f.Lines-1, l+se.RadiusL); nl++ {
		for ns := max(0, s-se.RadiusS); ns <= min(f.Samples-1, s+se.RadiusS); ns++ {
			d := dist[f.FlatIndex(nl, ns)]
			if d < lo {
				lo, minL, minS = d, nl, ns
			}
			if d > hi {
				hi, maxL, maxS = d, nl, ns
			}
		}
	}
	return minL, minS, maxL, maxS
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
	// supplies the pure signature of the dominant material there. A
	// dilation only copies pixels, so every pixel of Final is one of the
	// input's: the iterations follow which one through a source map, and
	// Final is built from it once, after the last.
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
	res, _ := meiRange(f, se, imax, ownedLo, ownedHi)
	return res
}

// meiRange is MEIRange that also returns the dot products it took: for
// neighbour pairs, and for the erode/dilate angles. Flops charges the
// paper's cost for every pair all the same.
func meiRange(f *cube.Cube, se StructuringElement, imax, ownedLo, ownedHi int) (*MEIResult, [2]int) {
	if imax < 1 {
		panic(fmt.Sprintf("morph: imax %d < 1", imax))
	}
	if ownedLo < 0 || ownedHi > f.Lines || ownedLo >= ownedHi {
		panic(fmt.Sprintf("morph: owned range [%d,%d) of %d lines", ownedLo, ownedHi, f.Lines))
	}
	m := newAMEE(f, se)
	scores := make([]float64, f.NumPixels())
	var flops float64
	var dots [2]int
	cols := float64(f.Samples)
	sadCost := spectral.FlopsSAD(f.Bands)
	clamp := func(v int) int { return max(0, min(v, f.Lines)) }
	for it := 0; it < imax; it++ {
		// Rows whose output must be valid after this iteration: the
		// remaining (imax-1-it) dilations each reach RadiusL rows.
		reach := se.RadiusL * (imax - 1 - it)
		outLo, outHi := clamp(ownedLo-reach), clamp(ownedHi+reach)
		// The distance map is consulted for rows within RadiusL of the
		// output region.
		mapLo, mapHi := clamp(outLo-se.RadiusL), clamp(outHi+se.RadiusL)
		dots[0] += m.distanceMap(mapLo, mapHi)
		flops += float64(mapHi-mapLo) * cols * float64(se.Size()-1) * sadCost
		dots[1] += m.dilate(outLo, outHi, scores)
		flops += float64(outHi-outLo) * cols * (2*float64(se.Size()) + sadCost)
	}
	final := cube.MustNew(f.Lines, f.Samples, f.Bands)
	for p, a := range m.src {
		copy(final.PixelAt(p), f.PixelAt(int(a)))
	}
	return &MEIResult{Scores: scores, Final: final, Flops: flops}, dots
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

// amee is the state of the AMEE loop over f. A dilation only copies
// pixels, so the image after any number of them is f read through a
// source map, and a pair's angle depends only on its two sources. Each
// angle takes the first of three rules (DESIGN.md "Kernel exactness"):
// equal sources have the source's self-angle; two positions copied from
// distinct neighbours have the angle a table holds for those; any other
// pair takes a new dot product of f's pixels with the cached norms. The
// first map copies nothing — every source is its own position and no row
// has a choice — so all its pairs are new.
type amee struct {
	f    *cube.Cube
	se   StructuringElement
	kern [][2]int // kernel offsets (dl, ds) in row-major order, the centre at len(fwd)
	fwd  [][2]int // the offsets after the centre: each unordered pair once

	src, next  []int32 // the pixel of f at each position: now and after the dilation
	choice     []int32 // kernel index of the neighbour the last dilation copied
	chLo, chHi int     // the rows the last dilation wrote: no other row has a choice

	norms, self []float64 // per pixel of f: squared norm and Angle(n, n, n)
	normed      bool      // norms and self are known: the first map is done
	pairs, prev []float64 // angles of each position's fwd pairs: this map's and the last
	dist        []float64
}

func newAMEE(f *cube.Cube, se StructuringElement) *amee {
	np := f.NumPixels()
	m := &amee{f: f, se: se, src: make([]int32, np), norms: make([]float64, np),
		self: make([]float64, np), dist: make([]float64, np)}
	for p := range m.src {
		m.src[p] = int32(p)
	}
	for dl := -se.RadiusL; dl <= se.RadiusL; dl++ {
		for ds := -se.RadiusS; ds <= se.RadiusS; ds++ {
			m.kern = append(m.kern, [2]int{dl, ds})
		}
	}
	m.fwd = m.kern[len(m.kern)/2+1:]
	return m
}

// index returns the position of offset (dl, ds) in the kernel's
// row-major order.
func (se StructuringElement) index(dl, ds int) int {
	return (dl+se.RadiusL)*(2*se.RadiusS+1) + ds + se.RadiusS
}

// distanceMap fills dist with D_B for rows [lo, hi) — other entries are
// stale and must not be consulted — and returns the dot products it took.
// The first call also measures the norm of every pixel within the
// kernel's reach of the range; later ranges must lie inside it, as
// MEIRange's shrinking ones do.
//
// SAD(a, b) and SAD(b, a) are the same bits — the products and na*nb
// commute — so each unordered neighbour pair is held once, by the
// position that comes first in row-major order. A row fan-out settles
// every pair; on the first call, whose norms are still being measured, it
// leaves dot products that a second fan-out turns into angles. Then each
// position's D_B is summed from its own pairs and its earlier
// neighbours', in Eq. 2's order. Rows are independent within a step (each
// writes only its own entries), so results are byte-identical at any
// parallelism.
func (m *amee) distanceMap(lo, hi int) int {
	f, k, S := m.f, len(m.fwd), m.f.Samples
	rlo, rhi := max(0, lo-m.se.RadiusL), min(f.Lines, hi+m.se.RadiusL)
	if m.normed {
		m.pairs, m.prev = m.prev, m.pairs
	}
	if m.pairs == nil {
		m.pairs = make([]float64, f.NumPixels()*k)
	}
	grain := rowGrain(f)
	var dots atomic.Int64
	par.Lines(rhi-rlo, grain, func(_, clo, chi int) {
		q := dotBatch{m: m, done: func(slot int, v float64) { m.pairs[slot] = v }}
		n := 0
		for l := rlo + clo; l < rlo+chi; l++ {
			for s := 0; s < S; s++ {
				n += m.fillPairs(l, s, hi, &q)
			}
		}
		q.flush()
		dots.Add(int64(n))
	})
	if !m.normed {
		par.Lines(hi-rlo, grain, func(_, clo, chi int) {
			for l := rlo + clo; l < rlo+chi; l++ {
				for s := 0; s < S; s++ {
					for i, o := range m.fwd {
						if nl, ns := l+o[0], s+o[1]; nl < f.Lines && ns >= 0 && ns < S {
							p := l*S + s
							m.pairs[p*k+i] = spectral.Angle(m.pairs[p*k+i], m.norms[p], m.norms[nl*S+ns])
						}
					}
				}
			}
		})
		m.normed = true
	}
	for l := lo; l < hi; l++ {
		for s := 0; s < S; s++ {
			p := l*S + s
			var sum float64
			for j, o := range m.kern {
				nl, ns := l+o[0], s+o[1]
				if j == k || nl < 0 || nl >= f.Lines || ns < 0 || ns >= S {
					continue
				}
				if j > k {
					sum += m.pairs[p*k+j-k-1]
				} else {
					// An earlier neighbour holds the pair, under the
					// negated offset.
					sum += m.pairs[(nl*S+ns)*k+k-1-j]
				}
			}
			m.dist[p] = sum
		}
	}
	return int(dots.Load())
}

// fillPairs settles the fwd pairs of position (l, s) when l < pairHi; a
// slot whose neighbour is outside the image is left unspecified. New
// pairs go through Dot4, with the position's pixel as the shared centre,
// when their whole block of four is new — every block of the first call,
// which also measures the pixel's norm there — and through q otherwise.
// It returns the dot products taken.
func (m *amee) fillPairs(l, s, pairHi int, q *dotBatch) int {
	f, k := m.f, len(m.fwd)
	p := l*f.Samples + s
	a := m.src[p]
	center := f.PixelAt(int(a))
	if l >= pairHi || k == 0 {
		if !m.normed {
			m.setNorm(p, spectral.SqNorm(center))
		}
		return 0
	}
	n := 0
	for b := 0; b < k; b += 4 {
		// A lane names its neighbour's source when the pair is new (and so
		// has two different sources), else the centre's.
		lane := [4]int32{a, a, a, a}
		copied := false
		for i := b; i < min(b+4, k); i++ {
			nl, ns := l+m.fwd[i][0], s+m.fwd[i][1]
			if nl >= f.Lines || ns < 0 || ns >= f.Samples {
				continue
			}
			if v, ok := m.copied(l, s, nl, ns); ok {
				m.pairs[p*k+i], copied = v, true
			} else {
				lane[i-b] = m.src[nl*f.Samples+ns]
				n++
			}
		}
		if copied {
			for i, x := range lane[:min(4, k-b)] {
				if x != a {
					q.add(p*k+b+i, a, x)
				}
			}
			continue
		}
		var d [4]float64
		var nx float64
		nx, d[0], d[1], d[2], d[3] = spectral.Dot4(center,
			f.PixelAt(int(lane[0])), f.PixelAt(int(lane[1])), f.PixelAt(int(lane[2])), f.PixelAt(int(lane[3])))
		if !m.normed {
			m.setNorm(p, nx)
		}
		for i, x := range lane[:min(4, k-b)] {
			if x != a && m.normed {
				d[i] = spectral.Angle(d[i], m.norms[a], m.norms[x])
			}
		}
		copy(m.pairs[p*k+b:(p+1)*k], d[:])
	}
	return n
}

// setNorm caches the squared norm of f's pixel p; the first map calls it
// for every source pixel, while each position is its own source.
func (m *amee) setNorm(p int, n float64) {
	m.norms[p], m.self[p] = n, spectral.Angle(n, n, n)
}

// copied returns the angle between the sources of position (l, s) and
// its fwd neighbour (nl, ns) when a rule settles it without a dot
// product: equal sources, or two rows with a choice whose choices are
// distinct neighbours in the last map.
func (m *amee) copied(l, s, nl, ns int) (float64, bool) {
	p, q := l*m.f.Samples+s, nl*m.f.Samples+ns
	if a := m.src[p]; a == m.src[q] {
		return m.self[a], true
	}
	if l < m.chLo || nl >= m.chHi {
		return 0, false
	}
	cp, cq := m.kern[m.choice[p]], m.kern[m.choice[q]]
	return m.pairAt(m.prev, l+cp[0], s+cp[1], nl+cq[0], ns+cq[1])
}

// pairAt returns the angle table holds for positions (l, s) and (nl, ns),
// or false when they are not distinct neighbours under the kernel. The
// first of the two in row-major order holds it, in the slot of its
// offset to the other.
func (m *amee) pairAt(table []float64, l, s, nl, ns int) (float64, bool) {
	k, dl, ds := len(m.fwd), nl-l, ns-s
	if dl < -m.se.RadiusL || dl > m.se.RadiusL || ds < -m.se.RadiusS || ds > m.se.RadiusS {
		return 0, false
	}
	switch i := m.se.index(dl, ds); {
	case i > k:
		return table[(l*m.f.Samples+s)*k+i-k-1], true
	case i < k:
		return table[(nl*m.f.Samples+ns)*k+k-1-i], true
	}
	return 0, false
}

// dilate runs the erode/dilate pass over rows [outLo, outHi): each
// position's MEI rises to the angle between the pixels erosion and
// dilation select (Eq. 5), settled by the same rules against this map's
// pairs, and the dilation's pick moves into the source map. It returns
// the dot products taken.
func (m *amee) dilate(outLo, outHi int, scores []float64) int {
	f, se, S := m.f, m.se, m.f.Samples
	if m.next == nil {
		m.next, m.choice = make([]int32, len(m.src)), make([]int32, len(m.src))
	}
	copy(m.next, m.src)
	var dots atomic.Int64
	// Each row writes only its own score, source and choice entries, so
	// the pass fans out over rows byte-identically.
	par.Lines(outHi-outLo, rowGrain(f), func(_, clo, chi int) {
		q := dotBatch{m: m, done: func(p int, v float64) { scores[p] = max(scores[p], v) }}
		n := 0
		for l := outLo + clo; l < outLo+chi; l++ {
			for s := 0; s < S; s++ {
				el, es, dl, ds := argOver(f, m.dist, se, l, s)
				p, a, b := l*S+s, m.src[el*S+es], m.src[dl*S+ds]
				m.next[p], m.choice[p] = b, int32(se.index(dl-l, ds-s))
				v, ok := m.self[a], a == b
				if !ok {
					v, ok = m.pairAt(m.pairs, el, es, dl, ds)
				}
				if ok {
					q.done(p, v)
				} else {
					q.add(p, a, b)
					n++
				}
			}
		}
		q.flush()
		dots.Add(int64(n))
	})
	m.src, m.next = m.next, m.src
	m.chLo, m.chHi = outLo, outHi
	return int(dots.Load())
}

// dotBatch gathers new pairs of f's pixels, by index, takes their dot
// products four at a time with spectral.DotPairs and hands each pair's
// angle to done. Only maps after the first gather pairs, so every norm
// is known.
type dotBatch struct {
	m    *amee
	id   [4]int
	a, b [4]int32
	n    int
	done func(id int, angle float64)
}

func (q *dotBatch) add(id int, a, b int32) {
	q.id[q.n], q.a[q.n], q.b[q.n] = id, a, b
	if q.n++; q.n == 4 {
		q.flush()
	}
}

func (q *dotBatch) flush() {
	if q.n == 0 {
		return
	}
	var x, y [4][]float32
	for i := range x {
		// Spare slots repeat a gathered pair; their results are dropped.
		x[i], y[i] = q.m.f.PixelAt(int(q.a[i%q.n])), q.m.f.PixelAt(int(q.b[i%q.n]))
	}
	d := spectral.DotPairs(x, y)
	for i := 0; i < q.n; i++ {
		q.done(q.id[i], spectral.Angle(d[i], q.m.norms[q.a[i]], q.m.norms[q.b[i]]))
	}
	q.n = 0
}

// FlopsMEI estimates the cost of MEI over np pixels with the given kernel
// and band count for imax iterations, matching the accounting MEI itself
// performs.
func FlopsMEI(np, seSize, bands, imax int) float64 {
	sadCost := spectral.FlopsSAD(bands)
	perIter := float64(np)*float64(seSize-1)*sadCost + float64(np)*(2*float64(seSize)+sadCost)
	return float64(imax) * perIter
}
