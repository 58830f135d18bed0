// Package linalg provides the dense linear algebra needed by the
// hyperspectral algorithms of the paper: matrix products, inversion,
// a symmetric eigensolver (for the principal component transform),
// non-negativity- and sum-to-one-constrained least squares (for the
// fully constrained linear mixture model behind UFCLS), and the
// orthogonal subspace projector used by ATDCA.
//
// Matrices are small (at most bands x bands, a few hundred square), so the
// implementations favour clarity and numerical robustness over blocking.
// Every routine that the parallel algorithms charge to the virtual-time
// model has a companion Flops* function returning the operation count the
// cost model uses.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// negZero is -0, the one float64 whose addition leaves every value as it
// is (x + -0 = x for every x, -0 and NaN included). A sum padded to a
// whole group of four terms gives each spare term a zero row and the
// coefficient -0: (-0)*0 = -0, so the padding changes no bit.
var negZero = math.Copysign(0, -1)

// Mat is a dense row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns a*b.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a*x for a vector x of length a.Cols.
func MulVec(a *Mat, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ErrSingular reports a numerically singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Inverse returns the inverse of square matrix a by Gauss-Jordan
// elimination with partial pivoting.
func Inverse(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Inverse of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	work := a.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest absolute value on or below the diagonal.
		pivot, best := col, math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row.
		p := work.At(col, col)
		scaleRow(work, col, 1/p)
		scaleRow(inv, col, 1/p)
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(work, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

func swapRows(m *Mat, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Mat, r int, f float64) {
	row := m.Row(r)
	for i := range row {
		row[i] *= f
	}
}

// axpyRow adds f * row(src) to row(dst).
func axpyRow(m *Mat, dst, src int, f float64) {
	rd, rs := m.Row(dst), m.Row(src)
	for i := range rd {
		rd[i] += f * rs[i]
	}
}

// Gram returns U*U^T for a t x n matrix U (the t x t Gram matrix of its
// rows).
func Gram(u *Mat) *Mat {
	g := NewMat(u.Rows, u.Rows)
	for i := 0; i < u.Rows; i++ {
		ri := u.Row(i)
		for j := i; j < u.Rows; j++ {
			v := Dot(ri, u.Row(j))
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	return g
}

// cholesky returns the lower triangular L with a = L L^T (stored densely),
// or ErrSingular when a is not numerically positive definite.
func cholesky(a *Mat) (*Mat, error) {
	n := a.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 1e-14 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Flop-count helpers for the virtual-time cost model. Counts follow the
// usual convention of one flop per scalar multiply-add.

// FlopsMulVec is the cost of an m x n matrix-vector product.
func FlopsMulVec(m, n int) float64 { return 2 * float64(m) * float64(n) }

// FlopsDot is the cost of an n-element inner product.
func FlopsDot(n int) float64 { return 2 * float64(n) }

// FlopsGram is the cost of forming the t x t Gram matrix of a t x n
// matrix.
func FlopsGram(t, n int) float64 { return float64(t) * float64(t+1) * float64(n) }

// FlopsInverse is the cost of Gauss-Jordan inversion of an n x n matrix.
func FlopsInverse(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }
