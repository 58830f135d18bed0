package algo

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/morph"
	"repro/internal/par"
	"repro/internal/spectral"
)

// The single-threaded, whole-scene forms of the four algorithms. They are
// test oracles: the parity and exactness tests compare the parallel code
// against them. A run's sequential time T(1) is core.RunSequential, the
// parallel code on a one-processor network, not these.

// ATDCASequential runs ATDCA on the whole scene in a single thread,
// returning t targets.
func ATDCASequential(f *cube.Cube, t int) (*DetectionResult, error) {
	if err := validateTargets(f, t); err != nil {
		return nil, err
	}
	res := &DetectionResult{}
	// Brightest pixel.
	best, bestScore := 0, -1.0
	for p := 0; p < f.NumPixels(); p++ {
		if s := f.Brightness(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	appendTarget(res, f, best, bestScore)
	// Orthogonal projection rounds. Following the paper's formulation,
	// the projector is materialized as an N x N matrix and applied to
	// every pixel vector.
	for len(res.Targets) < t {
		u := linalg.NewMat(len(res.Targets), f.Bands)
		for i, tgt := range res.Targets {
			copy(u.Row(i), linalg.Widen(nil, tgt.Signature))
		}
		proj, err := linalg.NewOSP(u)
		if err != nil {
			return nil, err
		}
		best, bestScore = maxProjection(proj.DenseScan(), f, new(lineSums).rows(f, 0))
		appendTarget(res, f, best, bestScore)
	}
	return res, nil
}

func appendTarget(res *DetectionResult, f *cube.Cube, p int, score float64) {
	l, s := f.Coord(p)
	sig := make([]float32, f.Bands)
	copy(sig, f.PixelAt(p))
	res.Targets = append(res.Targets, Target{Line: l, Sample: s, Score: score, Signature: sig})
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
	u.rows = append(u.rows, linalg.Widen(nil, res.Targets[0].Signature))
	var bounds lineBounds
	for len(res.Targets) < t {
		var err error
		best, bestScore, _, err = maxErrorScan(f, u, f.Bands, bounds.rows(f, 0))
		if err != nil {
			return nil, err
		}
		appendTarget(res, f, best, bestScore)
		u.rows = append(u.rows, linalg.Widen(nil, res.Targets[len(res.Targets)-1].Signature))
	}
	return res, nil
}

// PCTSequential runs the PCT classifier on the whole scene in a single
// thread.
func PCTSequential(f *cube.Cube, params PCTParams) (*ClassificationResult, error) {
	if err := params.validate(f); err != nil {
		return nil, err
	}
	reps, _ := uniqueScan(f, params.Theta, params.MaxReps)
	reps, _ = pruneReps(reps, floorCount(params.MinPopulation, f.NumPixels()))
	reps, _ = mergeReps(reps, params.Classes)
	sum, finite := finiteMeanSums(f)
	if finite == 0 {
		return nil, fmt.Errorf("algo: no finite pixels in scene")
	}
	mean := make([]float64, f.Bands)
	for b := range mean {
		mean[b] = sum[b] / float64(finite)
	}
	cov := linalg.NewMat(f.Bands, f.Bands)
	covarianceUpper(f, mean, cov)
	mirrorLower(cov)
	for i := range cov.Data {
		cov.Data[i] /= float64(finite)
	}
	t, err := pctTransformMatrix(cov, min(params.Classes, len(reps)))
	if err != nil {
		return nil, err
	}
	reduced := make([][]float64, len(reps))
	buf := make([]float64, t.Rows)
	for i, r := range reps {
		projectRowByRow(t, mean, r.sig, buf)
		reduced[i] = append([]float64(nil), buf...)
	}
	labels, _ := classifyReduced(f, t, mean, reduced)
	return &ClassificationResult{Labels: labels, Classes: repsToClasses(reps)}, nil
}

// projectRowByRow computes T*(x-m) for a float32 pixel one row of T at a
// time: the scalar loop pctProject replaces, so that the oracle shares no
// kernel with the parallel code it checks.
func projectRowByRow(t *linalg.Mat, mean []float64, v []float32, out []float64) {
	for k := 0; k < t.Rows; k++ {
		row := t.Row(k)
		var s float64
		for j := range row {
			s += row[j] * (float64(v[j]) - mean[j])
		}
		out[k] = s
	}
}

// classifyReduced labels every pixel of f with the index of the most
// similar projected representative. Returns labels and the flop count.
func classifyReduced(f *cube.Cube, t *linalg.Mat, mean []float64, reduced [][]float64) ([]int, float64) {
	labels := make([]int, f.NumPixels())
	par.Ranges(f.NumPixels(), par.Chunks(f.NumPixels(), 512), func(_, lo, hi int) {
		buf := par.GetFloat64s(t.Rows)
		defer par.PutFloat64s(buf)
		for p := lo; p < hi; p++ {
			projectRowByRow(t, mean, f.PixelAt(p), buf)
			best, bestD := 0, spectral.SADf64(buf, reduced[0])
			for k := 1; k < len(reduced); k++ {
				if d := spectral.SADf64(buf, reduced[k]); d < bestD {
					best, bestD = k, d
				}
			}
			labels[p] = best
		}
	})
	flops := float64(f.NumPixels()) * (linalg.FlopsMulVec(t.Rows, t.Cols) + float64(len(reduced))*spectral.FlopsSAD(t.Rows))
	return labels, flops
}

// MorphSequential runs the morphological classifier on the whole scene in
// a single thread.
func MorphSequential(f *cube.Cube, params MorphParams) (*ClassificationResult, error) {
	if err := params.validate(f); err != nil {
		return nil, err
	}
	se := morph.Square(params.Radius)
	res := morph.MEI(f, se, params.Iterations)
	cands, _ := selectCandidates(f, res.Source, res.Scores, 0, f.Lines, 6*params.Classes, params.Theta)
	cands, _ = filterBySupport(cands, f, params.supportRadius(), floorCount(params.MinSupport, f.NumPixels()), 3*params.Classes)
	endmembers, _ := fuseCandidates(cands, params.Classes, params.fuseTheta())
	if len(endmembers) == 0 {
		return nil, fmt.Errorf("algo: no endmembers found")
	}
	labels, _ := labelBySAD(f, endmembers)
	return &ClassificationResult{Labels: labels, Classes: endmembers}, nil
}
