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
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/par"
	"repro/internal/spectral"
	"repro/internal/vec"
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
// ties, the centre before all others. D_B is a sum of angles, never NaN
// and never -0, so its values order as their bits do: the scan compares
// the bits as integers, which the compiler selects with conditional moves
// rather than with branches the data would mispredict.
func argOver(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (minL, minS, maxL, maxS int) {
	S := f.Samples
	minL, minS, maxL, maxS = l, s, l, s
	lo := math.Float64bits(dist[l*S+s])
	hi := lo
	llo, lhi := max(0, l-se.RadiusL), min(f.Lines-1, l+se.RadiusL)
	slo, shi := max(0, s-se.RadiusS), min(S-1, s+se.RadiusS)
	for nl := llo; nl <= lhi; nl++ {
		for i, v := range dist[nl*S+slo : nl*S+shi+1] {
			d, ns := math.Float64bits(v), slo+i
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
	// Source is the image after the I_max dilations, as a map: position p
	// holds pixel Source[p] of the input cube, the most spectrally pure
	// signature of p's (grown) neighbourhood. Endmember candidates are
	// read through it at high-MEI locations — the high score marks
	// *where* materials meet; the dilated pixel supplies the pure
	// signature of the dominant material there. A dilation only copies
	// pixels, so the iterations follow the map and never build the image.
	Source []int32
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

// MEIRange is MEI computed only for what lines [ownedLo, ownedHi) need:
// iteration it writes the rows within RadiusL*(imax-1-it) of the owned
// ones, so the computed region shrinks toward them by RadiusL per
// iteration, and a worker pays for its halo rows only while that region
// covers them.
//
// That is the reach of a dilation's copy alone, not of an iteration: the
// erode/dilate pick at a row reads D_B RadiusL rows away, and D_B reads
// pixels RadiusL further, so an iteration's output depends on rows
// 2*RadiusL away. Past the first iteration the rows at the region's edge
// read pixels the last iteration did not write, and the owned scores and
// sources can differ from MEI's over the whole cube near the owned rows'
// edges (all of them at imax 1 match). MORPH's goldens and virtual times
// are pinned to this region; DESIGN.md's ablation list has the measured
// extent.
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
	defer m.release()
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
	return &MEIResult{Scores: scores, Source: slices.Clone(m.src), Flops: flops}, dots
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
// has a choice — so all its pairs are new. New pairs take their dot
// products and angles four at a time, in the lanes of package vec.
type amee struct {
	f     *cube.Cube
	se    StructuringElement
	kern  [][2]int // kernel offsets (dl, ds) in row-major order, the centre at len(fwd)
	fwd   [][2]int // the offsets after the centre: each unordered pair once
	sumAt []int    // where D_B's addends sit, from an inner position's first slot

	src, next  []int32 // the pixel of f at each position: now and after the dilation
	choice     []int32 // kernel index of the neighbour the last dilation copied
	chLo, chHi int     // the rows the last dilation wrote: no other row has a choice

	norms, self []float64 // per pixel of f: squared norm and Angle(n, n, n)
	normed      bool      // norms and self are known: the first map is done
	pairs, prev []float64 // angles of each position's fwd pairs: this map's and the last
	dist        []float64
}

// ameePool keeps amee's tables from one MEIRange to the next: a worker
// runs it on same-sized views over and over, and the tables are several
// times the size of the scores and source map it returns.
var ameePool = sync.Pool{New: func() any { return new(amee) }}

// newAMEE returns the state of a loop over f, its tables zeroed as if new.
func newAMEE(f *cube.Cube, se StructuringElement) *amee {
	m := ameePool.Get().(*amee)
	m.f, m.se, m.normed, m.chLo, m.chHi = f, se, false, 0, 0
	m.kern = m.kern[:0]
	for dl := -se.RadiusL; dl <= se.RadiusL; dl++ {
		for ds := -se.RadiusS; ds <= se.RadiusS; ds++ {
			m.kern = append(m.kern, [2]int{dl, ds})
		}
	}
	m.fwd = m.kern[len(m.kern)/2+1:]
	np, k := f.NumPixels(), len(m.fwd)
	m.sumAt = m.sumAt[:0]
	for j, o := range m.kern {
		switch {
		case j > k:
			m.sumAt = append(m.sumAt, j-k-1)
		case j < k:
			// An earlier neighbour holds the pair, under the negated offset.
			m.sumAt = append(m.sumAt, (o[0]*f.Samples+o[1])*k+k-1-j)
		}
	}
	m.src, m.next, m.choice = zeroed(m.src, np), zeroed(m.next, np), zeroed(m.choice, np)
	m.norms, m.self, m.dist = zeroed(m.norms, np), zeroed(m.self, np), zeroed(m.dist, np)
	m.pairs, m.prev = zeroed(m.pairs, np*k), zeroed(m.prev, np*k)
	for p := range m.src {
		m.src[p] = int32(p)
	}
	return m
}

// release returns m to the pool, letting go of its cube.
func (m *amee) release() {
	m.f = nil
	ameePool.Put(m)
}

// zeroed returns n zeros in s's storage, or in new storage when s has
// less capacity.
func zeroed[T int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
// leaves dot products that a second fan-out turns into angles, and each
// chunk of rows takes its pixels' self-angles once it has their norms.
// Then each position's D_B is summed from its own pairs and its earlier
// neighbours', in Eq. 2's order. Rows are independent within a step (each
// writes only its own entries), so results are byte-identical at any
// parallelism.
func (m *amee) distanceMap(lo, hi int) int {
	f, k, S := m.f, len(m.fwd), m.f.Samples
	rlo, rhi := max(0, lo-m.se.RadiusL), min(f.Lines, hi+m.se.RadiusL)
	if m.normed {
		m.pairs, m.prev = m.prev, m.pairs
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
		if !m.normed {
			m.selfAngles((rlo+clo)*S, (rlo+chi)*S)
		}
		dots.Add(int64(n))
	})
	if !m.normed {
		par.Lines(hi-rlo, grain, func(_, clo, chi int) {
			m.firstAngles(rlo+clo, rlo+chi)
		})
		m.normed = true
	}
	rl, rs := m.se.RadiusL, m.se.RadiusS
	for l := lo; l < hi; l++ {
		inner := l >= rl && l < f.Lines-rl
		for s := 0; s < S; s++ {
			p := l*S + s
			var sum float64
			if inner && s >= rs && s < S-rs {
				// The whole kernel is inside the image: the same addends,
				// in the same order, at fixed offsets from p's slots.
				for _, o := range m.sumAt {
					sum += m.pairs[p*k+o]
				}
				m.dist[p] = sum
				continue
			}
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

// firstAngles turns the dot products the first map left in the fwd
// slots of rows [lo, hi) into angles, in place, a batch of slots per call
// of vec.Angles. A slot whose neighbour is outside the image stays
// unspecified.
func (m *amee) firstAngles(lo, hi int) {
	f, S := m.f, m.f.Samples
	var na, nb [angleBatch]float64
	j0, n := lo*S*len(m.fwd), 0 // the batch: slots j0 .. j0+n
	for l := lo; l < hi; l++ {
		for s := 0; s < S; s++ {
			p := l*S + s
			for _, o := range m.fwd {
				q := p
				if nl, ns := l+o[0], s+o[1]; nl < f.Lines && ns >= 0 && ns < S {
					q = nl*S + ns
				}
				na[n], nb[n] = m.norms[p], m.norms[q]
				if n++; n == angleBatch {
					slots := m.pairs[j0 : j0+n]
					vec.Angles(slots, slots, na[:], nb[:])
					j0, n = j0+n, 0
				}
			}
		}
	}
	slots := m.pairs[j0 : j0+n]
	vec.Angles(slots, slots, na[:n], nb[:n])
}

// selfAngles sets the self-angle Angle(n, n, n) of f's pixels [lo, hi),
// whose norms n are known.
func (m *amee) selfAngles(lo, hi int) {
	n := m.norms[lo:hi]
	vec.Angles(m.self[lo:hi], n, n, n)
}

// fillPairs settles the fwd pairs of position (l, s) when l < pairHi, by
// the first of amee's three rules that applies: equal sources, two rows
// with a choice whose choices are distinct neighbours in the last map, or
// a new dot product. A slot whose neighbour is outside the image is left
// unspecified. New pairs go through vec.Dot4, with the position's pixel
// as the shared centre, when their whole block of four is new — every
// block of the first call, which also measures the pixel's norm there
// and leaves the angles to firstAngles — and through q otherwise; q
// takes the angles of both. It returns the dot products taken.
func (m *amee) fillPairs(l, s, pairHi int, q *dotBatch) int {
	f, k := m.f, len(m.fwd)
	p := l*f.Samples + s
	a := m.src[p]
	center := f.PixelAt(int(a))
	if l >= pairHi || k == 0 {
		if !m.normed {
			m.norms[p] = spectral.SqNorm(center)
		}
		return 0
	}
	// Rule 2 looks up the position the last dilation copied into p, when
	// it wrote row l, and the one it copied into the neighbour.
	chosen := l >= m.chLo && l < m.chHi
	var cl, cs int
	if chosen {
		c := m.kern[m.choice[p]]
		cl, cs = l+c[0], s+c[1]
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
			qn := nl*f.Samples + ns
			x := m.src[qn]
			if x == a {
				m.pairs[p*k+i], copied = m.self[a], true
				continue
			}
			if chosen && nl < m.chHi {
				c := m.kern[m.choice[qn]]
				if v, ok := m.pairAt(m.prev, cl, cs, nl+c[0], ns+c[1]); ok {
					m.pairs[p*k+i], copied = v, true
					continue
				}
			}
			lane[i-b] = x
			n++
		}
		if copied {
			for i, x := range lane[:min(4, k-b)] {
				if x != a {
					q.add(p*k+b+i, a, x)
				}
			}
			continue
		}
		nx, d := vec.Dot4(center,
			f.PixelAt(int(lane[0])), f.PixelAt(int(lane[1])), f.PixelAt(int(lane[2])), f.PixelAt(int(lane[3])))
		if !m.normed {
			m.norms[p] = nx // each position is its own source
			copy(m.pairs[p*k+b:(p+1)*k], d[:])
			continue
		}
		for i, x := range lane[:min(4, k-b)] {
			if x != a {
				q.angle(p*k+b+i, d[i], m.norms[a], m.norms[x])
			}
		}
	}
	return n
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

// angleBatch is how many angles a dotBatch takes per call of vec.Angles:
// four groups of lanes, whose dependency chains the processor overlaps.
const angleBatch = 16

// dotBatch takes the angles of pairs of f's pixels and hands each to
// done: pairs named by index, whose dot products it takes four at a time
// with vec.DotPairs, and pairs whose dot product a caller already has.
// The angles are taken angleBatch at a time; done may come later than the
// call that named the pair, and comes for every pair by flush. Only maps
// after the first use it, so every norm is known.
type dotBatch struct {
	m    *amee
	done func(id int, angle float64)

	pid  [4]int // pairs awaiting their dot product
	a, b [4]int32
	pn   int

	id          [angleBatch]int // pairs awaiting their angle
	dot, na, nb [angleBatch]float64
	n           int
}

// add queues the pair of f's pixels a and b.
func (q *dotBatch) add(id int, a, b int32) {
	q.pid[q.pn], q.a[q.pn], q.b[q.pn] = id, a, b
	if q.pn++; q.pn == 4 {
		q.dots()
	}
}

// angle queues a pair by its dot product and squared norms.
func (q *dotBatch) angle(id int, dot, na, nb float64) {
	q.id[q.n], q.dot[q.n], q.na[q.n], q.nb[q.n] = id, dot, na, nb
	if q.n++; q.n == angleBatch {
		q.angles()
	}
}

// dots takes the dot products of the queued pairs.
func (q *dotBatch) dots() {
	var x, y [4][]float32
	for i := range x {
		j := i
		if j >= q.pn {
			j = 0 // a spare slot repeats the first pair; its result is dropped
		}
		x[i], y[i] = q.m.f.PixelAt(int(q.a[j])), q.m.f.PixelAt(int(q.b[j]))
	}
	d := vec.DotPairs(&x, &y)
	for i := range q.pn {
		q.angle(q.pid[i], d[i], q.m.norms[q.a[i]], q.m.norms[q.b[i]])
	}
	q.pn = 0
}

// angles takes the queued angles and hands them to done.
func (q *dotBatch) angles() {
	vec.Angles(q.dot[:q.n], q.dot[:q.n], q.na[:q.n], q.nb[:q.n])
	for i, v := range q.dot[:q.n] {
		q.done(q.id[i], v)
	}
	q.n = 0
}

// flush hands every queued pair's angle to done.
func (q *dotBatch) flush() {
	if q.pn > 0 {
		q.dots()
	}
	if q.n > 0 {
		q.angles()
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
