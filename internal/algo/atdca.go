package algo

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// This file implements the Automated Target Detection and Classification
// Algorithm (ATDCA) of Algorithm 2: iterative target extraction by
// orthogonal subspace projection. The first target is the brightest pixel
// F^T F; each subsequent target is the pixel with the maximum orthogonal
// projection norm relative to the subspace spanned by the targets found
// so far.

// ATDCAParallel is the Hetero-ATDCA of Algorithm 2 (or its homogeneous
// version, depending on the partitioning strategy, or the adaptive one
// given Exec.Adaptive). It must run inside an
// mpi program; f is required at the root and ignored elsewhere. The
// result is returned at the root; other ranks return nil.
func ATDCAParallel(c *mpi.Comm, f *cube.Cube, params DetectionParams, ex Exec) (*DetectionResult, error) {
	return detectRounds(c, f, params, ex, atdcaDetector)
}

var atdcaDetector = detector{key: ckptATDCA, round: projectionCriterion}

// projectionCriterion scores a pixel by the norm of its projection onto
// the orthogonal complement of span(U). Every rank materializes the dense
// projector P⊥_U (and its filter) once per round; the master re-applying
// it to the champions is the compute-intensive sequential step the paper
// calls out for ATDCA. The rank's filter sums carry over from the last
// round, unless this round's filter cannot skip anything.
func projectionCriterion(u uMatrix, bands, eqBands int, st *carried) (criterion, error) {
	proj, err := linalg.NewOSP(u.mat(bands))
	if err != nil {
		return criterion{}, err
	}
	scan, t := proj.DenseScan(), len(u.rows)
	if !scan.Filters() {
		st.sums = nil
	}
	return criterion{
		setup: linalg.FlopsOSPDenseBuild(t, bands), each: linalg.FlopsOSPDenseApply(bands),
		mSetup: linalg.FlopsOSPDenseBuild(t, eqBands), mEach: linalg.FlopsOSPDenseApply(eqBands),
		best: func(view *cube.Cube, lo int) (int, float64, error) {
			best, bestScore := maxProjection(scan, view, st.sums.rows(view, lo))
			return best, bestScore, nil
		},
		score: func(sig []float32) (float64, error) { return scan.Score(sig), nil },
	}, nil
}

// lineSums is a rank's ATDCA filter sums, one row per global scene line.
type lineSums [][]linalg.FilterSum

// rows returns the sum rows of view, whose first line is global line lo,
// allocating the rows never scanned before.
func (ls *lineSums) rows(view *cube.Cube, lo int) [][]linalg.FilterSum {
	return lineRows((*[][]linalg.FilterSum)(ls), view, lo, linalg.FilterSum{})
}

// maxProjection returns the pixel of view with the largest dense
// projection score (the lowest index on ties) and that score, or (-1, -1)
// for an empty view; sums holds the filter sums of view's pixels, one row
// per line. Only a pixel that is not provably below the best so far is
// widened and goes through the dense kernel (DenseScan.Score), so the
// winner, its score and every comparison are the kernel's.
func maxProjection(s *linalg.DenseScan, view *cube.Cube, sums [][]linalg.FilterSum) (int, float64) {
	best, bestScore := -1, -1.0
	for l, row := range sums {
		for smp := range row {
			p := l*view.Samples + smp
			y := view.PixelAt(p)
			if s.Skip(y, &row[smp], bestScore) {
				continue
			}
			if score := s.Score(y); score > bestScore {
				best, bestScore = p, score
			}
		}
	}
	return best, bestScore
}

func validateTargets(f *cube.Cube, t int) error {
	if f == nil {
		return fmt.Errorf("algo: nil cube")
	}
	if t < 1 {
		return fmt.Errorf("algo: target count %d < 1", t)
	}
	if t > f.Bands {
		return fmt.Errorf("algo: %d targets exceed %d bands (projector would be degenerate)", t, f.Bands)
	}
	if t > f.NumPixels() {
		return fmt.Errorf("algo: %d targets exceed %d pixels", t, f.NumPixels())
	}
	return nil
}
