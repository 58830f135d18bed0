package algo

import (
	"math"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/par"
)

// This file implements the Unsupervised Fully Constrained Least Squares
// (UFCLS) target generation of Algorithm 3: starting from the brightest
// pixel, each round unmixes every pixel as a fully constrained (non-
// negative, sum-to-one) linear mixture of the targets found so far and
// admits the pixel with the largest reconstruction error as the next
// target.

// ufclsEndmemberMat assembles the bands x t endmember matrix from the
// target rows of U.
func ufclsEndmemberMat(u uMatrix, bands int) *linalg.Mat {
	m := linalg.NewMat(bands, len(u.rows))
	for j, row := range u.rows {
		for b := 0; b < bands; b++ {
			m.Set(b, j, row[b])
		}
	}
	return m
}

// lineBounds is a rank's UFCLS bounds (UnmixBound's J from each pixel's
// last solve; NaN for none), one row per global scene line.
type lineBounds [][]float64

// rows returns the bound rows of view, whose first line is global line
// lo, allocating the rows never scored before.
func (lb *lineBounds) rows(view *cube.Cube, lo int) [][]float64 {
	return lineRows((*[][]float64)(lb), view, lo, math.NaN())
}

// lineRows returns the rows of a rank's per-pixel state ls — one row per
// global scene line, allocated when the rank first scans the line and
// filled with init — for view, whose first line is global line lo. The
// state lives as long as the rank's run and is not checkpointed.
func lineRows[T comparable](ls *[][]T, view *cube.Cube, lo int, init T) [][]T {
	if n := lo + view.Lines; len(*ls) < n {
		*ls = append(*ls, make([][]T, n-len(*ls))...)
	}
	rows := (*ls)[lo : lo+view.Lines]
	missing := 0
	for _, r := range rows {
		if r == nil {
			missing++
		}
	}
	if missing == 0 {
		return rows
	}
	fresh := make([]T, missing*view.Samples)
	var zero T
	if init != zero {
		for i := range fresh {
			fresh[i] = init
		}
	}
	for i, r := range rows {
		if r == nil {
			rows[i], fresh = fresh[:view.Samples:view.Samples], fresh[view.Samples:]
		}
	}
	return rows
}

// maxErrorScan unmixes every pixel of f against U and returns the index
// and reconstruction error of the worst-reconstructed pixel. The scan is
// chunked over pixels with one FCLS solver (and workspace) per chunk;
// per-chunk maxima are folded in ascending chunk order with a strict
// greater-than, so ties resolve to the earliest pixel index exactly as a
// serial scan would and the result is identical at any par budget.
// A pixel whose bound (bounds has one row per line of f) lies more than
// BoundSlack below its chunk's best so far cannot reach that best and is
// not solved (DESIGN.md "Kernel exactness"). Also returns the solve count.
func maxErrorScan(f *cube.Cube, u uMatrix, bands int, bounds [][]float64) (int, float64, int, error) {
	np := f.NumPixels()
	chunks := par.Chunks(np, 2048)
	type chunkMax struct {
		best, solves int
		score        float64
		err          error
	}
	out := make([]chunkMax, chunks)
	par.Ranges(np, chunks, func(c, lo, hi int) {
		solver := linalg.NewFCLSSolver(ufclsEndmemberMat(u, bands))
		best, bestScore, below, solves := -1, -1.0, math.Inf(-1), 0
		for p := lo; p < hi; p++ {
			bound := &bounds[p/f.Samples][p%f.Samples]
			if *bound < below {
				continue
			}
			solves++
			err2, j, err := solver.UnmixBound(f.PixelAt(p))
			if err != nil {
				out[c] = chunkMax{err: err}
				return
			}
			*bound = j
			if err2 > bestScore {
				best, bestScore = p, err2
				below = bestScore - solver.BoundSlack(bestScore)
			}
		}
		out[c] = chunkMax{best: best, solves: solves, score: bestScore}
	})
	best, bestScore, solves := -1, -1.0, 0
	for _, r := range out {
		if r.err != nil {
			return 0, 0, 0, r.err
		}
		if solves += r.solves; r.score > bestScore {
			best, bestScore = r.best, r.score
		}
	}
	return best, bestScore, solves, nil
}

// UFCLSParallel is the Hetero-UFCLS of Algorithm 3 (or its homogeneous
// version). It must run inside an mpi program; f is required at the root.
// The result is returned at the root; other ranks return nil.
func UFCLSParallel(c *mpi.Comm, f *cube.Cube, params DetectionParams, ex Exec) (*DetectionResult, error) {
	return detectRounds(c, f, params, ex, ufclsDetector)
}

var ufclsDetector = detector{key: ckptUFCLS, round: errorCriterion}

// errorCriterion scores a pixel by its reconstruction error under fully
// constrained unmixing against U: each rank forms the error image of its
// spans, less the pixels its bounds rule out, and the master re-unmixes
// the champions (step 4 of Algorithm 3).
func errorCriterion(u uMatrix, bands, eqBands int, st *carried) (criterion, error) {
	t := len(u.rows)
	var solver *linalg.FCLSSolver // the master's; built on first use
	return criterion{
		setup: linalg.FlopsGram(t, bands), each: linalg.FlopsFCLSGram(bands, t),
		mSetup: linalg.FlopsGram(t, eqBands), mEach: linalg.FlopsFCLSGram(eqBands, t),
		best: func(view *cube.Cube, lo int) (int, float64, error) {
			best, score, _, err := maxErrorScan(view, u, bands, st.bounds.rows(view, lo))
			return best, score, err
		},
		score: func(sig []float32) (float64, error) {
			if solver == nil {
				solver = linalg.NewFCLSSolver(ufclsEndmemberMat(u, bands))
			}
			_, err2, err := solver.UnmixF32(sig)
			return err2, err
		},
	}, nil
}
