package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNNLSUnconstrainedInterior(t *testing.T) {
	// Well-conditioned system whose unconstrained solution is positive:
	// NNLS must match plain least squares.
	a := MatFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{1, 2, 3}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-8) || !almostEq(x[1], 2, 1e-8) {
		t.Errorf("NNLS = %v, want [1 2]", x)
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained solution has a negative component; NNLS must clamp
	// it to zero and stay non-negative.
	a := MatFromRows([][]float64{{1, 1}, {1, -1}})
	b := []float64{0, 2} // unconstrained: x = (1, -1)
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range x {
		if v < 0 {
			t.Errorf("x[%d] = %v negative", j, v)
		}
	}
	if x[1] != 0 {
		t.Errorf("x = %v, want second component clamped to 0", x)
	}
}

func TestNNLSZeroRHS(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	x, err := NNLS(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("NNLS(0) = %v, want zeros", x)
	}
}

func TestNNLSShapeMismatch(t *testing.T) {
	if _, err := NNLS(NewMat(2, 2), []float64{1, 2, 3}); err == nil {
		t.Error("shape mismatch: expected error")
	}
}

func TestNNLSResidualOptimality(t *testing.T) {
	// KKT check: at the solution, gradient components for active (zero)
	// variables must be non-positive directions of improvement, i.e.
	// w_j = (A^T r)_j <= tol; for passive variables w_j ~= 0.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m, n := 6+rng.Intn(5), 2+rng.Intn(4)
		a := randMat(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := make([]float64, m)
		copy(r, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				r[i] -= a.At(i, j) * x[j]
			}
		}
		for j := 0; j < n; j++ {
			var w float64
			for i := 0; i < m; i++ {
				w += a.At(i, j) * r[i]
			}
			if x[j] < 0 {
				t.Fatalf("trial %d: negative solution component", trial)
			}
			if x[j] == 0 && w > 1e-6 {
				t.Fatalf("trial %d: KKT violated for active var %d: w=%v", trial, j, w)
			}
			if x[j] > 0 && math.Abs(w) > 1e-6 {
				t.Fatalf("trial %d: KKT violated for passive var %d: w=%v", trial, j, w)
			}
		}
	}
}

func TestFCLSRecoversAbundances(t *testing.T) {
	// Three synthetic endmembers, a pixel mixed 0.5/0.3/0.2: FCLS must
	// recover abundances to good accuracy.
	bands := 20
	m := NewMat(bands, 3)
	for i := 0; i < bands; i++ {
		x := float64(i) / float64(bands-1)
		m.Set(i, 0, 1+x)         // upward slope
		m.Set(i, 1, 2-x)         // downward slope
		m.Set(i, 2, 1+4*x*(1-x)) // bump
	}
	truth := []float64{0.5, 0.3, 0.2}
	y := MulVec(m, truth)
	alpha, err := FCLS(m, y)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for j, a := range alpha {
		sum += a
		if !almostEq(a, truth[j], 1e-3) {
			t.Errorf("alpha[%d] = %v, want %v", j, a, truth[j])
		}
	}
	if !almostEq(sum, 1, 1e-3) {
		t.Errorf("sum(alpha) = %v, want 1", sum)
	}
}

func TestFCLSSumToOneUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bands := 16
	m := randMat(rng, bands, 4)
	for i := range m.Data {
		m.Data[i] = math.Abs(m.Data[i]) + 0.1 // reflectance-like positive
	}
	y := make([]float64, bands)
	for i := range y {
		y[i] = math.Abs(rng.NormFloat64())
	}
	alpha, err := FCLS(m, y)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range alpha {
		if a < 0 {
			t.Errorf("negative abundance %v", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("sum(alpha) = %v, want ~1", sum)
	}
}

func TestFCLSShapeMismatch(t *testing.T) {
	if _, err := FCLS(NewMat(4, 2), []float64{1, 2}); err == nil {
		t.Error("shape mismatch: expected error")
	}
}

// reconstructionError is ||M*alpha - y||^2 band by band, the loop
// FCLSSolver.Unmix's residual pass replaced; it is the reference the
// solver's err2 must match bit for bit.
func reconstructionError(m *Mat, alpha, y []float64) float64 {
	var e float64
	for i := 0; i < m.Rows; i++ {
		s := -y[i]
		row := m.Row(i)
		for j, a := range alpha {
			s += row[j] * a
		}
		e += s * s
	}
	return e
}

func TestReconstructionError(t *testing.T) {
	m := MatFromRows([][]float64{{1, 0}, {0, 1}})
	// alpha=(1,0), y=(0,0): error = 1.
	if got := reconstructionError(m, []float64{1, 0}, []float64{0, 0}); !almostEq(got, 1, 1e-12) {
		t.Errorf("reconstructionError = %v", got)
	}
	// Perfect reconstruction: error = 0.
	if got := reconstructionError(m, []float64{2, 3}, []float64{2, 3}); !almostEq(got, 0, 1e-12) {
		t.Errorf("perfect reconstruction error = %v", got)
	}
}

func TestReconstructionErrorMatchesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(rng, 10, 3)
	alpha := []float64{0.2, 0.5, 0.3}
	y := make([]float64, 10)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	pred := MulVec(m, alpha)
	var want float64
	for i := range y {
		d := pred[i] - y[i]
		want += d * d
	}
	if got := reconstructionError(m, alpha, y); !almostEq(got, want, 1e-10) {
		t.Errorf("reconstructionError = %v, want %v", got, want)
	}
}

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

// SolveSPD solves a*x = b for symmetric positive definite a via Cholesky
// decomposition; it returns ErrSingular when a is not positive definite.
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: SolveSPD shape mismatch %dx%d with %d", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	l, err := cholesky(a)
	if err != nil {
		return nil, err
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back substitution L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x, nil
}
