package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matsAlmostEq(a, b *Mat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !almostEq(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatPanicsOnBadShape(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {-2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMat(%v) did not panic", bad)
				}
			}()
			NewMat(bad[0], bad[1])
		}()
	}
}

func TestMatFromRows(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Errorf("MatFromRows built %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows did not panic")
		}
	}()
	MatFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndAtSet(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
	m.Set(0, 2, 5)
	if m.At(0, 2) != 5 {
		t.Error("Set/At roundtrip failed")
	}
}

func TestTranspose(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %+v", mt)
	}
}

func TestMulKnown(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := MatFromRows([][]float64{{19, 22}, {43, 50}})
	if !matsAlmostEq(got, want, 1e-12) {
		t.Errorf("Mul = %+v", got)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul shape mismatch did not panic")
		}
	}()
	Mul(NewMat(2, 3), NewMat(2, 3))
}

func TestMulVec(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {0, 1, 0}})
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 1 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 25 {
		t.Error("Norm2 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestInverseKnown(t *testing.T) {
	a := MatFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := MatFromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !matsAlmostEq(inv, want, 1e-12) {
		t.Errorf("Inverse = %+v", inv)
	}
}

func TestInverseSingular(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(a); err == nil {
		t.Error("singular matrix: expected error")
	}
	if _, err := Inverse(NewMat(2, 3)); err == nil {
		t.Error("non-square matrix: expected error")
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := MatFromRows([][]float64{{0, 1}, {1, 0}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !matsAlmostEq(inv, a, 1e-12) {
		t.Errorf("permutation inverse = %+v", inv)
	}
}

func TestInverseRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant => invertible
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !matsAlmostEq(Mul(a, inv), Identity(n), 1e-8) {
			t.Fatalf("trial %d: A*inv(A) != I", trial)
		}
	}
}

func TestGram(t *testing.T) {
	u := MatFromRows([][]float64{{1, 0, 1}, {0, 2, 0}})
	g := Gram(u)
	want := MatFromRows([][]float64{{2, 0}, {0, 4}})
	if !matsAlmostEq(g, want, 1e-12) {
		t.Errorf("Gram = %+v", g)
	}
}

func TestSolveSPD(t *testing.T) {
	a := MatFromRows([][]float64{{4, 1}, {1, 3}})
	x, err := SolveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Check residual instead of hand-solving.
	r := MulVec(a, x)
	if !almostEq(r[0], 1, 1e-10) || !almostEq(r[1], 2, 1e-10) {
		t.Errorf("SolveSPD residual %v", r)
	}
}

func TestSolveSPDErrors(t *testing.T) {
	if _, err := SolveSPD(NewMat(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square: expected error")
	}
	notPD := MatFromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := SolveSPD(notPD, []float64{1, 1}); err == nil {
		t.Error("indefinite matrix: expected error")
	}
}

func TestFlopCountsPositiveAndMonotone(t *testing.T) {
	if FlopsMulVec(10, 10) <= FlopsMulVec(5, 5) {
		t.Error("FlopsMulVec not monotone")
	}
	if FlopsInverse(20) <= FlopsInverse(10) {
		t.Error("FlopsInverse not monotone")
	}
	for _, v := range []float64{
		FlopsMulVec(3, 4), FlopsDot(7), FlopsGram(2, 9),
		FlopsInverse(3), FlopsSymEigen(5), FlopsOSPBuild(2, 10),
	} {
		if v <= 0 {
			t.Errorf("flop count %v not positive", v)
		}
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestQuickTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b := randMat(r, m, k), randMat(r, k, n)
		left := Mul(a, b).T()
		right := Mul(b.T(), a.T())
		return matsAlmostEq(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec agrees with Mul against a one-column matrix.
func TestQuickMulVecConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(6), 1+r.Intn(6)
		a := randMat(r, m, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xm := NewMat(n, 1)
		copy(xm.Data, x)
		prod := Mul(a, xm)
		vec := MulVec(a, x)
		for i := 0; i < m; i++ {
			if !almostEq(prod.At(i, 0), vec[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// MatFromRows builds a matrix from row slices, which must be equal length.
func MatFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: MatFromRows with no data")
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d", i))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v []float64) float64 { return Dot(v, v) }
