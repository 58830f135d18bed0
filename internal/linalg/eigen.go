package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: Values[i] is
// the i-th eigenvalue and the i-th column of Vectors the corresponding
// unit eigenvector, sorted by decreasing eigenvalue (the order the PCT
// uses to rank principal components by explained variance).
type Eigen struct {
	Values  []float64
	Vectors *Mat // n x n, eigenvectors in columns
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; 30 sweeps is far
// beyond what a few-hundred-band covariance matrix needs to converge.
const maxJacobiSweeps = 30

// SymEigen computes the eigendecomposition of symmetric matrix a by the
// cyclic Jacobi method. The input must be symmetric; asymmetry beyond
// floating-point noise is reported as an error.
func SymEigen(a *Mat) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: SymEigen of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	// Symmetry tolerance scaled to the matrix magnitude.
	var scale float64
	for _, v := range a.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-9 * math.Max(scale, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, fmt.Errorf("linalg: SymEigen input not symmetric at (%d,%d)", i, j)
			}
		}
	}

	w := a.Clone()
	vt := Identity(n) // the eigenvectors transposed: row i is column i of V
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for _, x := range w.Row(i)[i+1:] {
				off += x * x
			}
		}
		if off < 1e-22*math.Max(scale*scale, 1) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, vt, p, q, c, s)
			}
		}
	}
	eig := &Eigen{Values: make([]float64, n), Vectors: NewMat(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = w.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool { return diag[order[x]] > diag[order[y]] })
	for rank, idx := range order {
		eig.Values[rank] = diag[idx]
		for r, x := range vt.Row(idx) {
			eig.Vectors.Set(r, rank, x)
		}
	}
	return eig, nil
}

// rotate applies the Jacobi rotation J(p,q,c,s) to w (two-sided) and
// accumulates it into the eigenvector matrix V (right side only), held
// transposed in vt so that V's columns p and q are rows. Every entry
// takes the arithmetic of the textbook loop over columns p and q, then
// rows p and q of w, then columns p and q of V, in that order.
func rotate(w, vt *Mat, p, q int, c, s float64) {
	d, n := w.Data, w.Cols
	for kp, kq := p, q; kq < len(d); kp, kq = kp+n, kq+n {
		wkp, wkq := d[kp], d[kq]
		d[kp] = c*wkp - s*wkq
		d[kq] = s*wkp + c*wkq
	}
	rotateRows(w.Row(p), w.Row(q), c, s)
	rotateRows(vt.Row(p), vt.Row(q), c, s)
}

// rotateRows sets x, y to c*x - s*y, s*x + c*y.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

// FlopsSymEigen estimates the cost of a Jacobi eigendecomposition of an
// n x n symmetric matrix (a handful of O(n) rotations for each of the
// n(n-1)/2 pairs, over a small number of sweeps).
func FlopsSymEigen(n int) float64 {
	nf := float64(n)
	const sweeps = 8 // typical sweeps to convergence
	return sweeps * nf * (nf - 1) / 2 * 12 * nf
}
