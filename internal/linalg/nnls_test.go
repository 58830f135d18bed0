package linalg

import (
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
