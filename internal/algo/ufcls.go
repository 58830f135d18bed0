package algo

import (
	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/partition"
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

// maxErrorScan unmixes every pixel of f against U and returns the index
// and reconstruction error of the worst-reconstructed pixel. The scan is
// chunked over pixels with one FCLS solver (and workspace) per chunk;
// per-chunk maxima are folded in ascending chunk order with a strict
// greater-than, so ties resolve to the earliest pixel index exactly as a
// serial scan would and the result is identical at any par budget.
func maxErrorScan(f *cube.Cube, u uMatrix, bands int) (int, float64, error) {
	np := f.NumPixels()
	chunks := par.Chunks(np, 2048)
	type chunkMax struct {
		best  int
		score float64
		err   error
	}
	out := make([]chunkMax, chunks)
	par.Ranges(np, chunks, func(c, lo, hi int) {
		solver := linalg.NewFCLSSolver(ufclsEndmemberMat(u, bands))
		best, bestScore := -1, -1.0
		for p := lo; p < hi; p++ {
			_, err2, err := solver.UnmixF32(f.PixelAt(p))
			if err != nil {
				out[c] = chunkMax{err: err}
				return
			}
			if err2 > bestScore {
				best, bestScore = p, err2
			}
		}
		out[c] = chunkMax{best: best, score: bestScore}
	})
	best, bestScore := -1, -1.0
	for _, r := range out {
		if r.err != nil {
			return 0, 0, r.err
		}
		if r.score > bestScore {
			best, bestScore = r.best, r.score
		}
	}
	return best, bestScore, nil
}

// UFCLSSequential runs UFCLS on the whole scene in a single thread.
func UFCLSSequential(f *cube.Cube, t int) (*DetectionResult, error) {
	if err := validateTargets(f, t); err != nil {
		return nil, err
	}
	res := &DetectionResult{}
	best, bestScore := 0, -1.0
	for p := 0; p < f.NumPixels(); p++ {
		if s := f.Brightness(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	appendTarget(res, f, best, bestScore)
	var u uMatrix
	u.rows = append(u.rows, toF64(res.Targets[0].Signature))
	for len(res.Targets) < t {
		var err error
		best, bestScore, err = maxErrorScan(f, u, f.Bands)
		if err != nil {
			return nil, err
		}
		appendTarget(res, f, best, bestScore)
		u.rows = append(u.rows, toF64(res.Targets[len(res.Targets)-1].Signature))
	}
	return res, nil
}

// UFCLSParallel is the Hetero-UFCLS of Algorithm 3 (or its homogeneous
// version). It must run inside an mpi program; f is required at the root.
// The result is returned at the root; other ranks return nil.
func UFCLSParallel(c *mpi.Comm, f *cube.Cube, params DetectionParams, strat partition.Strategy) (*DetectionResult, error) {
	return detectRounds(c, f, params, ufclsDetector, func() (schedule, error) {
		return newSchedule(c, f, strat, 0, params.Balance)
	})
}

var ufclsDetector = detector{key: ckptUFCLS, round: errorCriterion}

// errorCriterion scores a pixel by its reconstruction error under fully
// constrained unmixing against U: each rank forms the error image of its
// spans, and the master re-unmixes the champions (step 4 of Algorithm 3).
func errorCriterion(u uMatrix, bands, eqBands int) (criterion, error) {
	t := len(u.rows)
	var solver *linalg.FCLSSolver // the master's; built on first use
	return criterion{
		setup: linalg.FlopsGram(t, bands), each: linalg.FlopsFCLSGram(bands, t),
		mSetup: linalg.FlopsGram(t, eqBands), mEach: linalg.FlopsFCLSGram(eqBands, t),
		best: func(view *cube.Cube) (int, float64, error) { return maxErrorScan(view, u, bands) },
		score: func(sig []float32) (float64, error) {
			if solver == nil {
				solver = linalg.NewFCLSSolver(ufclsEndmemberMat(u, bands))
			}
			_, err2, err := solver.UnmixF32(sig)
			return err2, err
		},
	}, nil
}
