package linalg

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the constrained least-squares machinery behind the
// UFCLS algorithm (Algorithm 3 of the paper): the linear mixture model
// y = M*alpha + noise, where the abundance vector alpha is estimated
// subject to non-negativity (NNLS) and additionally to the sum-to-one
// constraint (FCLS, after Heinz & Chang).

// ErrNoConverge reports that an iterative solver hit its iteration bound.
var ErrNoConverge = errors.New("linalg: solver did not converge")

// nnlsMaxOuter bounds Lawson-Hanson outer iterations; 3x the variable
// count is the customary safeguard.
func nnlsMaxOuter(n int) int { return 3 * (n + 10) }

// NNLS solves min ||A*x - b||^2 subject to x >= 0 using the Lawson-Hanson
// active set method. A is m x n with m >= 1, n >= 1.
func NNLS(a *Mat, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: NNLS shape mismatch %dx%d with %d", a.Rows, a.Cols, len(b))
	}
	m, n := a.Rows, a.Cols
	x := make([]float64, n)
	passive := make([]bool, n)
	resid := make([]float64, m)
	copy(resid, b)

	// w = A^T * resid, the dual vector.
	w := make([]float64, n)
	computeW := func() {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a.At(i, j) * resid[i]
			}
			w[j] = s
		}
	}
	// solvePassive solves the unconstrained LS restricted to the passive
	// set via normal equations (the passive set is small in our use).
	solvePassive := func() ([]float64, []int, error) {
		var idx []int
		for j := 0; j < n; j++ {
			if passive[j] {
				idx = append(idx, j)
			}
		}
		k := len(idx)
		if k == 0 {
			return nil, nil, nil
		}
		ata := NewMat(k, k)
		atb := make([]float64, k)
		for p := 0; p < k; p++ {
			for q := p; q < k; q++ {
				var s float64
				for i := 0; i < m; i++ {
					s += a.At(i, idx[p]) * a.At(i, idx[q])
				}
				ata.Set(p, q, s)
				ata.Set(q, p, s)
			}
			var s float64
			for i := 0; i < m; i++ {
				s += a.At(i, idx[p]) * b[i]
			}
			atb[p] = s
		}
		// Tiny ridge keeps nearly collinear endmember sets solvable.
		for p := 0; p < k; p++ {
			ata.Set(p, p, ata.At(p, p)+1e-12)
		}
		z, err := SolveSPD(ata, atb)
		if err != nil {
			return nil, nil, err
		}
		return z, idx, nil
	}
	updateResid := func() {
		for i := 0; i < m; i++ {
			s := b[i]
			for j := 0; j < n; j++ {
				if x[j] != 0 {
					s -= a.At(i, j) * x[j]
				}
			}
			resid[i] = s
		}
	}

	const tol = 1e-10
	for outer := 0; outer < nnlsMaxOuter(n); outer++ {
		computeW()
		// Pick the most violated constraint among the active set.
		best, bestW := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			return x, nil // KKT satisfied
		}
		passive[best] = true
		for {
			z, idx, err := solvePassive()
			if err != nil {
				return nil, err
			}
			// If the unconstrained sub-solution is feasible, accept it.
			neg := false
			for p := range idx {
				if z[p] <= tol {
					neg = true
					break
				}
			}
			if !neg {
				for j := range x {
					x[j] = 0
				}
				for p, j := range idx {
					x[j] = z[p]
				}
				updateResid()
				break
			}
			// Otherwise step from x toward z until the first variable
			// hits zero, then move that variable to the active set.
			alpha := math.Inf(1)
			for p, j := range idx {
				if z[p] <= tol {
					den := x[j] - z[p]
					if den > 0 {
						if r := x[j] / den; r < alpha {
							alpha = r
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for p, j := range idx {
				x[j] += alpha * (z[p] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
			updateResid()
		}
	}
	// Iteration cap hit (rare numerical cycling): the current iterate is
	// feasible and near-optimal; return it rather than failing the whole
	// image over one pathological pixel.
	return x, nil
}

// FCLSDelta controls how strongly the sum-to-one constraint is enforced
// in FCLS. Following Heinz & Chang it should dominate the signature
// magnitudes but not by so much that the augmented normal equations become
// numerically singular: one to two orders of magnitude above typical
// reflectance works across this repository's scenes.
const FCLSDelta = 25.0

// FCLS solves the fully constrained linear unmixing problem: given
// endmember matrix M (bands x t, one endmember per column) and a pixel
// y (length bands), find abundances alpha >= 0 with sum(alpha) ~= 1
// minimizing ||M*alpha - y||. Implemented, as is standard, by augmenting
// the system with a heavily weighted sum-to-one row and solving NNLS.
func FCLS(m *Mat, y []float64) ([]float64, error) {
	if m.Rows != len(y) {
		return nil, fmt.Errorf("linalg: FCLS shape mismatch %dx%d with %d", m.Rows, m.Cols, len(y))
	}
	aug := NewMat(m.Rows+1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(aug.Row(i), m.Row(i))
	}
	for j := 0; j < m.Cols; j++ {
		aug.Set(m.Rows, j, FCLSDelta)
	}
	b := make([]float64, m.Rows+1)
	copy(b, y)
	b[m.Rows] = FCLSDelta
	return NNLS(aug, b)
}

// FlopsNNLS estimates the cost of one NNLS solve with m equations and n
// variables; dominated by forming the normal equations per outer
// iteration.
func FlopsNNLS(m, n int) float64 {
	mf, nf := float64(m), float64(n)
	iters := nf + 2 // typical number of outer iterations
	return iters * (mf*nf + nf*nf*mf/2 + nf*nf*nf/3)
}

// FlopsFCLS estimates the cost of one FCLS unmixing of a pixel with b
// bands against t endmembers.
func FlopsFCLS(b, t int) float64 { return FlopsNNLS(b+1, t) }
