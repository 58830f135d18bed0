package algo

import (
	"fmt"
	"sort"

	"repro/internal/balance"
	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/vec"
	"repro/internal/vtime"
)

// This file implements the PCT classifier of Algorithm 4: select a unique
// spectral set of c representative pixel vectors by SAD deduplication,
// compute the principal component transform of the scene (mean vector,
// covariance matrix, eigendecomposition), project every pixel onto the
// first c components, and label each pixel with the most similar unique
// vector in the reduced space.
//
// One deliberate deviation from the paper's text: steps 4-6 of Algorithm 4
// read as if the mean and covariance were computed over the unique set,
// which for c=7 pixels would make the covariance degenerate (rank <= 7
// from 7 samples) and could not be meaningfully "divided into P parts".
// We compute the PCT statistics over the full image — the standard
// parallel PCT — which matches the paper's cost profile (heavy sequential
// eigendecomposition at the master, Table 6) and its degrees of
// parallelism.

// PCTParams configures the PCT classifier.
type PCTParams struct {
	// Classes is the number c of classes (and principal components kept).
	Classes int
	// Theta is the SAD threshold (radians) under which two pixels are
	// considered spectrally identical during unique-set construction.
	Theta float64
	// MaxReps bounds the per-scan representative count.
	MaxReps int
	// EquivalentBands, when nonzero, sets the band count at which the
	// sequential eigendecomposition is charged in the virtual-time model.
	// Reduced-scene experiments set it to the paper's 224 so the
	// master-side O(bands^3) step keeps its full-problem weight (see
	// mpi.World.SetComputeScale, which only scales pixel-proportional
	// work).
	EquivalentBands int
	// MinPopulation is the minimum fraction of scanned pixels a unique-set
	// representative must account for to become a class; smaller groups
	// (isolated anomalies such as the thermal hot spots, which the target
	// detectors exist to find) are absorbed into their nearest
	// representative before merging. Zero (or less) selects 0.5%, not
	// DefaultPCTParams' 2%.
	MinPopulation float64
}

// eigenBands returns the band count used for the eigendecomposition
// charge.
func (p PCTParams) eigenBands(actual int) int {
	if p.EquivalentBands > actual {
		return p.EquivalentBands
	}
	return actual
}

// DefaultPCTParams mirrors the paper's setup: c=7 classes (the USGS
// dust/debris map), with a dedup threshold below the smallest inter-class
// angle of the USGS-style materials and a 2% population floor (a zero
// MinPopulation falls back to 0.5%).
func DefaultPCTParams() PCTParams {
	return PCTParams{Classes: 7, Theta: 0.04, MaxReps: 48, MinPopulation: 0.02}
}

// pruneReps absorbs representatives whose population is below minCount
// into their nearest surviving representative. Returns the pruned set and
// the number of SAD evaluations. At least one representative always
// survives.
func pruneReps(reps []rep, minCount int) ([]rep, int) {
	if len(reps) == 0 {
		// Possible when every scanned pixel was non-finite.
		return reps, 0
	}
	var kept, small []rep
	for _, r := range reps {
		if r.count >= minCount {
			kept = append(kept, r)
		} else {
			small = append(small, r)
		}
	}
	if len(kept) == 0 {
		// Degenerate scan (tiny partition): keep the largest group.
		best := 0
		for i := range reps {
			if reps[i].count > reps[best].count {
				best = i
			}
		}
		kept = []rep{reps[best]}
		small = append(reps[:best:best], reps[best+1:]...)
	}
	// Ties go to the lowest index, and every kept representative is
	// charged one SAD per absorbed one.
	set := spectral.NewSet(nil)
	for _, k := range kept {
		set.Add(k.sig)
	}
	var px spectral.Pixel
	for _, s := range small {
		nearest, _ := set.Nearest(px.Load(s.sig), spectral.NoLimit)
		kept[nearest].count += s.count
	}
	return kept, len(small) * len(kept)
}

func (p PCTParams) validate(f *cube.Cube) error {
	if f == nil {
		return fmt.Errorf("algo: nil cube")
	}
	if p.Classes < 1 {
		return fmt.Errorf("algo: class count %d < 1", p.Classes)
	}
	if p.Classes > f.Bands {
		return fmt.Errorf("algo: %d classes exceed %d bands", p.Classes, f.Bands)
	}
	if p.Theta <= 0 {
		return fmt.Errorf("algo: non-positive theta %v", p.Theta)
	}
	if p.MaxReps < p.Classes {
		return fmt.Errorf("algo: MaxReps %d below class count %d", p.MaxReps, p.Classes)
	}
	return nil
}

// rep is one unique-set representative: the first pixel seen of a
// spectrally distinct group, with the group's population.
type rep struct {
	sig   []float32
	count int
}

func repsBytes(reps []rep, bands int) int { return len(reps) * (4*bands + 8) }

// uniqueScan builds the unique spectral set of a cube by greedy SAD
// deduplication (step 2 of Algorithm 4): a pixel joins an existing
// representative when their SAD is below theta, otherwise it founds a new
// one (until maxReps, after which outliers are absorbed by their nearest
// representative). Returns the set and the number of SAD evaluations
// the paper's scan performs, for cost accounting. Once the set is full,
// one Nearest serves both of the paper's scans (DESIGN.md "Kernel
// exactness").
func uniqueScan(f *cube.Cube, theta float64, maxReps int) ([]rep, int) {
	var reps []rep
	set := spectral.NewSet(nil)
	below := spectral.NewLimit(theta)
	var px spectral.Pixel
	sadCalls := 0
	for p := 0; p < f.NumPixels(); p++ {
		v := f.PixelAt(p)
		// A corrupt pixel is SAD pi from everything, so it would found a
		// representative of its own (and a class, if its group survives
		// pruning). Leave it out; classification handles it at label time.
		if !spectral.Finite(v) {
			continue
		}
		// The cost model charges one SAD per representative scanned.
		sadCalls += len(reps)
		limit := below
		if len(reps) == maxReps {
			limit = spectral.NoLimit
		}
		i, d := set.Nearest(px.Load(v), limit)
		switch {
		case i >= 0 && d < theta:
			reps[i].count++
		case len(reps) < maxReps:
			sig := make([]float32, len(v))
			copy(sig, v)
			reps = append(reps, rep{sig: sig, count: 1})
			set.Add(sig)
		default:
			// Set is full: absorb into the nearest representative, the
			// paper's second scan.
			sadCalls += len(reps)
			reps[i].count++
		}
	}
	return reps, sadCalls
}

// mergeReps combines representatives one pair at a time — always the
// spectrally closest pair, the larger population absorbing the smaller —
// until at most c remain (step 3 of Algorithm 4). Pairwise distances are
// computed once and maintained incrementally, so the whole merge costs
// O(n^2) SAD evaluations rather than O(n^4). Returns the merged set and
// the number of SAD evaluations.
func mergeReps(reps []rep, c int) ([]rep, int) {
	n := len(reps)
	if n <= c {
		return reps, 0
	}
	sadCalls := 0
	type pair struct {
		d    float64
		i, j int
	}
	pairs := make([]pair, 0, n*(n-1)/2)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := spectral.SAD(reps[i].sig, reps[j].sig)
			sadCalls++
			pairs = append(pairs, pair{d: d, i: i, j: j})
		}
	}
	// Signatures never change during merging (the larger population
	// absorbs the smaller), so one global sort suffices.
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].d != pairs[b].d {
			return pairs[a].d < pairs[b].d
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	remaining := n
	for _, p := range pairs {
		if remaining <= c {
			break
		}
		if !alive[p.i] || !alive[p.j] {
			continue
		}
		keep, drop := p.i, p.j
		if reps[p.j].count > reps[p.i].count {
			keep, drop = p.j, p.i
		}
		reps[keep].count += reps[drop].count
		alive[drop] = false
		remaining--
	}
	out := make([]rep, 0, c)
	for i := 0; i < n; i++ {
		if alive[i] {
			out = append(out, reps[i])
		}
	}
	return out, sadCalls
}

// finiteMeanSums accumulates per-band sums over the finite pixels of f,
// returning the sums and the finite-pixel count (the divisor for both
// the mean and the covariance). Pixel chunks are folded in ascending
// chunk order, so the result is bit-identical at any par worker budget.
func finiteMeanSums(f *cube.Cube) ([]float64, int) {
	bands := f.Bands
	np := f.NumPixels()
	chunks := par.Chunks(np, 2048)
	bufs := make([][]float64, chunks)
	counts := make([]int, chunks)
	par.Ranges(np, chunks, func(ci, lo, hi int) {
		buf := par.GetFloat64s(bands)
		n := 0
		for p := lo; p < hi; p++ {
			v := f.PixelAt(p)
			if !spectral.Finite(v) {
				continue
			}
			n++
			for b, x := range v {
				buf[b] += float64(x)
			}
		}
		bufs[ci] = buf
		counts[ci] = n
	})
	sum := make([]float64, bands)
	count := 0
	for ci, buf := range bufs {
		for b, v := range buf {
			sum[b] += v
		}
		par.PutFloat64s(buf)
		count += counts[ci]
	}
	return sum, count
}

// covarianceUpper accumulates the upper triangle of sum (x-m)(x-m)^T over
// the cube into acc (bands x bands). Returns the flop count charged.
// Pixels are split into chunks whose partial matrices are folded into acc
// in ascending chunk order, so the result is bit-identical at any par
// worker budget. Within a chunk, four finite pixels are centred and then
// added to the triangle in one pass: each entry adds their four products
// left to right, in pixel order, so it takes the additions of four
// one-pixel passes in the same order (DESIGN.md "Kernel exactness"). The
// last one to three pixels of a chunk take the one-pixel pass.
func covarianceUpper(f *cube.Cube, mean []float64, acc *linalg.Mat) float64 {
	n := f.Bands
	np := f.NumPixels()
	sz := len(acc.Data)
	chunks := par.Chunks(np, 2048)
	bufs := make([][]float64, chunks)
	par.Ranges(np, chunks, func(c, lo, hi int) {
		buf := par.GetFloat64s(sz)
		d := par.GetFloat64s(4 * n) // up to four centred pixels
		k := 0
		for p := lo; p < hi; p++ {
			v := f.PixelAt(p)
			// Non-finite pixels are excluded from the statistics, matching
			// the mean (finiteMeanSums); one NaN sample would otherwise
			// poison the whole matrix and every eigenvector with it.
			if !spectral.Finite(v) {
				continue
			}
			e := d[k*n : (k+1)*n]
			for i, x := range v {
				e[i] = float64(x) - mean[i]
			}
			if k++; k == 4 {
				addOuter4(buf, d, n)
				k = 0
			}
		}
		for j := 0; j < k; j++ {
			addOuter(buf, d[j*n:(j+1)*n])
		}
		par.PutFloat64s(d)
		bufs[c] = buf
	})
	for _, buf := range bufs {
		for i, v := range buf {
			acc.Data[i] += v
		}
		par.PutFloat64s(buf)
	}
	return float64(np) * (float64(n) + float64(n)*float64(n+1))
}

// addOuter adds the upper triangle of e e^T to buf (n x n, n = len(e)).
func addOuter(buf, e []float64) {
	n := len(e)
	for i, ei := range e {
		row := buf[i*n+i : (i+1)*n]
		for j, ej := range e[i:] {
			row[j] += ei * ej
		}
	}
}

// addOuter4 adds the upper triangles of the outer products of the four
// n-vectors in d, in order: vec.AddProducts4 gives every entry addOuter's
// four additions in the same order.
func addOuter4(buf, d []float64, n int) {
	e0, e1, e2, e3 := d[:n], d[n:2*n], d[2*n:3*n], d[3*n:4*n]
	for i := 0; i < n; i++ {
		row := buf[i*n+i : (i+1)*n]
		vec.AddProducts4(row, [4]float64{e0[i], e1[i], e2[i], e3[i]}, e0[i:], e1[i:], e2[i:], e3[i:])
	}
}

func mirrorLower(m *linalg.Mat) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}

// pctTransformMatrix extracts the first c eigenvectors (as rows) of the
// covariance matrix.
func pctTransformMatrix(cov *linalg.Mat, c int) (*linalg.Mat, error) {
	eig, err := linalg.SymEigen(cov)
	if err != nil {
		return nil, err
	}
	t := linalg.NewMat(c, cov.Rows)
	for k := 0; k < c; k++ {
		for j := 0; j < cov.Rows; j++ {
			t.Set(k, j, eig.Vectors.At(j, k))
		}
	}
	return t, nil
}

// pctProject computes T*(x-m) for a float32 pixel into out, from T's
// rows packed in t. The pixel is centred once into d; component k then
// sums T[k][j]*(x[j]-m[j]) over the bands in band order, the same
// products in the same order as a loop over one row of T at a time.
func pctProject(t *vec.Panel, mean []float64, v []float32, d, out []float64) {
	for j, x := range v {
		d[j] = float64(x) - mean[j]
	}
	t.Dots(d, 0, out)
}

// reduceCube projects every pixel of f onto the transform's components,
// returning one reduced vector per pixel, all in one backing array, and
// the flop count.
func reduceCube(f *cube.Cube, t *linalg.Mat, mean []float64) ([][]float64, float64) {
	np, c := f.NumPixels(), t.Rows
	rows := vec.PackRows(t.Cols, t.Data)
	out := make([][]float64, np)
	flat := make([]float64, np*c)
	// Each pixel writes only its own output slot: byte-identical at any
	// parallelism.
	par.Ranges(np, par.Chunks(np, 512), func(_, lo, hi int) {
		d := par.GetFloat64s(f.Bands)
		defer par.PutFloat64s(d)
		for p := lo; p < hi; p++ {
			out[p] = flat[p*c : (p+1)*c : (p+1)*c]
			pctProject(rows, mean, f.PixelAt(p), d, out[p])
		}
	})
	return out, float64(np) * linalg.FlopsMulVec(t.Rows, t.Cols)
}

// classifyReducedVectors labels every reduced pixel vector with its most
// similar projected representative. Returns labels and the flop count.
func classifyReducedVectors(reduced [][]float64, reps [][]float64, comps int) ([]int, float64) {
	labels := make([]int, len(reduced))
	par.Ranges(len(reduced), par.Chunks(len(reduced), 512), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			v := reduced[p]
			best, bestD := 0, spectral.SADf64(v, reps[0])
			for k := 1; k < len(reps); k++ {
				if d := spectral.SADf64(v, reps[k]); d < bestD {
					best, bestD = k, d
				}
			}
			labels[p] = best
		}
	})
	return labels, float64(len(reduced)) * float64(len(reps)) * spectral.FlopsSAD(comps)
}

// repsToResult converts representatives into the classification result's
// class signatures.
func repsToClasses(reps []rep) [][]float32 {
	out := make([][]float32, len(reps))
	for i, r := range reps {
		out[i] = r.sig
	}
	return out
}

// pctBcastMsg carries the transform, mean and reduced representatives
// from the master to the workers.
type pctBcastMsg struct {
	t       *linalg.Mat
	mean    []float64
	reduced [][]float64
	classes [][]float32
}

func (m pctBcastMsg) bytes() int {
	b := 8 * len(m.t.Data)
	b += 8 * len(m.mean)
	for _, r := range m.reduced {
		b += 8 * len(r)
	}
	for _, cl := range m.classes {
		b += 4 * len(cl)
	}
	return b
}

// pctStat is one span's contribution to the scene statistics: its merged
// unique set (step 2) and the finite-pixel band sums behind the global
// mean (step 4).
type pctStat struct {
	reps  []rep
	sum   []float64
	count int
}

// PCTParallel is the Hetero-PCT of Algorithm 4 (or its homogeneous
// version). It must run inside an mpi program; f is required at the root.
// The result is returned at the root; other ranks return nil.
//
// The static and balanced schedules run the same per-span work and the
// same master folds, but not the same message sequence: the paper's
// protocol gathers the unique sets, the mean sums and the pixel counts
// separately and routes the reduced cube through the master, whereas a
// demand-driven grant already carries the rows, so the balanced schedule
// takes the statistics in one pass per span and transforms and classifies
// each chunk in place.
func PCTParallel(c *mpi.Comm, f *cube.Cube, params PCTParams, ex Exec) (*ClassificationResult, error) {
	if c.Root() {
		if err := params.validate(f); err != nil {
			return nil, err
		}
	}
	s, err := newSchedule(c, f, ex, 0)
	if err != nil {
		return nil, err
	}
	_, chunked := s.(*balancedSchedule)
	lines, samples, bands := s.shape()

	// Resume: a valid phase snapshot carries the full step-7 state
	// (transform, mean, reduced representatives, classes), so the run
	// skips straight to the distribution step. A fresh run executes steps
	// 2-7 unchanged and snapshots the result.
	msg, resumed := resume(c, ex.Checkpoint, ckptPCT, func(b []byte) (pctBcastMsg, int, bool) {
		m, err := decodePCTState(b)
		return m, 1, err == nil && m.t.Cols == bands && len(m.mean) == bands
	})
	if resumed == 0 {
		msg, err = pctStatistics(c, s, params, chunked)
		if err != nil {
			return nil, err
		}
		if c.Root() {
			if err := save(c, ex.Checkpoint, ckptPCT, 1, func() []byte { return encodePCTState(msg) }); err != nil {
				return nil, err
			}
		}
	}
	var msgBytes int
	if c.Root() {
		msgBytes = msg.bytes()
	}
	msg = c.Bcast(0, tagBroadcast, msg, msgBytes).(pctBcastMsg)

	// Step 8 transforms every span into the reduced (c-component) cube,
	// step 9 classifies it there.
	var reduced [][]float64
	reduce := func(view *cube.Cube) int {
		var flops float64
		reduced, flops = reduceCube(view, msg.t, msg.mean)
		c.Compute(flops, vtime.Par)
		return int(float64(len(reduced)*msg.t.Rows*8) * c.DataScale())
	}
	classify := func() (any, int) {
		labels, flops := classifyReducedVectors(reduced, msg.reduced, msg.t.Rows)
		c.Compute(flops, vtime.Par)
		return labels, int(8 * float64(len(labels)) * c.DataScale())
	}
	var parts []balance.Partial
	if chunked {
		fpl := float64(samples) * (linalg.FlopsMulVec(msg.t.Rows, bands) +
			float64(len(msg.reduced))*spectral.FlopsSAD(msg.t.Rows))
		parts = s.run(phase{fpl: fpl}, func(view *cube.Cube, _, _ partition.Span) (any, int) {
			reduce(view)
			return classify()
		})
	} else {
		// The reduced-cube partitions pass through the master, exactly as
		// the paper routes them ("P partitions of a reduced data cube ...
		// are sent to the workers"). The payloads are pixel-proportional,
		// so the transfers carry the data scale.
		gathered := s.run(phase{tag: tagPartial}, func(view *cube.Cube, _, _ partition.Span) (any, int) {
			bytes := reduce(view)
			return reduced, bytes
		})
		if c.Root() {
			// Assembling the reduced cube at the master is a linear pass.
			total := 0
			for _, p := range gathered {
				total += len(payloadOf[[][]float64](p))
			}
			c.Compute(float64(total), vtime.Seq)
			for r := 1; r < c.Size(); r++ {
				part := payloadOf[[][]float64](gathered[r])
				c.Send(r, tagPartial, part, int(float64(len(part)*msg.t.Rows*8)*c.DataScale()))
			}
		} else {
			reduced = mpi.RecvAs[[][]float64](c, 0, tagPartial)
		}
		parts = s.run(phase{tag: tagLabels}, func(*cube.Cube, partition.Span, partition.Span) (any, int) {
			return classify()
		})
	}
	if !c.Root() {
		return nil, nil
	}
	return &ClassificationResult{Labels: assembleLabels(c, parts, lines, samples), Classes: msg.classes}, nil
}

// pctStatistics runs steps 2-7 of Algorithm 4 — the unique-set build, the
// scene statistics and the master's eigendecomposition — returning the
// step-7 broadcast state at the root (the zero message elsewhere). Every
// phase is pinned: unique sets, the population floor and the floating-
// point sums all depend on where the spans are cut.
func pctStatistics(c *mpi.Comm, s schedule, params PCTParams, chunked bool) (pctBcastMsg, error) {
	_, samples, bands := s.shape()
	sad := spectral.FlopsSAD(bands)

	// Step 2: a span's unique spectral set, reduced to c representatives
	// before shipping.
	unique := func(view *cube.Cube) []rep {
		reps, calls := uniqueScan(view, params.Theta, params.MaxReps)
		c.Compute(float64(calls)*sad, vtime.Par)
		reps, calls = pruneReps(reps, floorCount(params.MinPopulation, view.NumPixels()))
		c.ComputeFixed(float64(calls)*sad, vtime.Par)
		reps, calls = mergeReps(reps, params.Classes)
		c.ComputeFixed(float64(calls)*sad, vtime.Par)
		return reps
	}
	// Step 4: a span's mean sums. Sums and counts cover only finite pixels
	// (corrupt samples would poison every statistic downstream), but the
	// compute charge stays the full scan — every pixel is still read.
	sums := func(view *cube.Cube, st pctStat) pctStat {
		st.sum, st.count = finiteMeanSums(view)
		c.Compute(float64(view.NumPixels())*float64(bands), vtime.Par)
		return st
	}
	// Step 3: the master combines the unique sets one pair of sets at a
	// time, so the final set of c representatives emerges after P-1
	// pairwise folds (linear in P, matching the paper's scaling).
	var reps []rep
	foldReps := func(parts []balance.Partial) {
		for _, p := range parts {
			if rs := payloadOf[pctStat](p).reps; len(rs) > 0 {
				var calls int
				reps, calls = mergeReps(append(reps, rs...), params.Classes)
				c.ComputeFixed(float64(calls)*sad, vtime.Seq)
			}
		}
	}
	var stats []balance.Partial
	if chunked {
		fpl := float64(samples) * (float64(params.MaxReps)*sad + float64(bands))
		stats = s.run(phase{pinned: true, fpl: fpl}, func(view *cube.Cube, _, _ partition.Span) (any, int) {
			st := sums(view, pctStat{reps: unique(view)})
			return st, repsBytes(st.reps, bands) + 8*bands + 8
		})
		foldReps(stats)
	} else {
		foldReps(s.run(phase{tag: tagCandidate}, func(view *cube.Cube, _, _ partition.Span) (any, int) {
			reps := unique(view)
			return pctStat{reps: reps}, repsBytes(reps, bands)
		}))
		stats = s.run(phase{tag: tagPartial, idleBytes: 8 * bands}, func(view *cube.Cube, _, _ partition.Span) (any, int) {
			return sums(view, pctStat{}), 8 * bands
		})
		// The counts are a gather of their own in the paper's protocol;
		// the simulated wire only carries sizes, and the values already
		// rode with the sums.
		s.run(phase{tag: tagPartial, idleBytes: 8}, func(*cube.Cube, partition.Span, partition.Span) (any, int) {
			return nil, 8
		})
	}
	var mean []float64
	total := 0
	if c.Root() {
		mean = make([]float64, bands)
		for _, p := range stats {
			st := payloadOf[pctStat](p)
			for b, v := range st.sum {
				mean[b] += v
			}
			total += st.count
		}
		if total == 0 {
			return pctBcastMsg{}, fmt.Errorf("algo: no finite pixels in scene")
		}
		for b := range mean {
			mean[b] /= float64(total)
		}
		c.ComputeFixed(float64(len(stats))*float64(bands), vtime.Seq)
	}
	mean = c.Bcast(0, tagBroadcast, mean, 8*bands).([]float64)

	// Steps 5-6: covariance components in parallel, summed at the master.
	cov := phase{tag: tagPartial, idleBytes: 8 * bands * bands, pinned: true,
		fpl: float64(samples) * (float64(bands) + float64(bands)*float64(bands+1))}
	covs := s.run(cov, func(view *cube.Cube, _, _ partition.Span) (any, int) {
		local := linalg.NewMat(bands, bands)
		c.Compute(covarianceUpper(view, mean, local), vtime.Par)
		return local, 8 * bands * bands
	})
	if !c.Root() {
		return pctBcastMsg{}, nil
	}
	sum := linalg.NewMat(bands, bands)
	for _, p := range covs {
		if local := payloadOf[*linalg.Mat](p); local != nil {
			for i, v := range local.Data {
				sum.Data[i] += v
			}
		}
	}
	mirrorLower(sum)
	for i := range sum.Data {
		sum.Data[i] /= float64(total)
	}
	c.ComputeFixed(float64(len(covs))*float64(bands)*float64(bands), vtime.Seq)

	// Step 7: eigendecomposition, sequential at the master.
	t, err := pctTransformMatrix(sum, min(params.Classes, len(reps)))
	if err != nil {
		return pctBcastMsg{}, err
	}
	c.ComputeFixed(linalg.FlopsSymEigen(params.eigenBands(bands)), vtime.Seq)
	reduced := make([][]float64, len(reps))
	rows, d := vec.PackRows(t.Cols, t.Data), make([]float64, bands)
	for i, r := range reps {
		reduced[i] = make([]float64, t.Rows)
		pctProject(rows, mean, r.sig, d, reduced[i])
	}
	c.ComputeFixed(float64(len(reps))*linalg.FlopsMulVec(t.Rows, bands), vtime.Seq)
	return pctBcastMsg{t: t, mean: mean, reduced: reduced, classes: repsToClasses(reps)}, nil
}
