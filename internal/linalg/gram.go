package linalg

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/vec"
)

// This file provides the Gram-form constrained least squares used by the
// UFCLS hot loop. UFCLS re-unmixes every pixel against the current
// endmember set at every outer iteration; solving NNLS through the
// precomputed Gram matrix M^T M removes the band dimension from the inner
// iteration entirely (the classical normal-equations formulation of
// Lawson-Hanson), which is the difference between minutes and seconds on
// the full scene. NNLS and FCLS in nnls_test.go stay as the slow references.

// FCLSSolver unmixes pixels against a fixed endmember set under the fully
// constrained (non-negative, sum-to-one) linear mixture model, amortizing
// the endmember Gram matrix across pixels.
//
// A solver carries preallocated workspaces (UFCLS unmixes every pixel of
// the scene each round, so per-call allocation would dominate), which
// makes it single-goroutine: create one solver per worker.
type FCLSSolver struct {
	// mt is M^T, one endmember per row, with zero rows appended up to a
	// multiple of four so the residual adds four endmembers per pass.
	mt        *Mat
	mtp       *vec.Panel // mt's rows packed, for M^T y
	ata       *Mat       // augmented Gram: M^T M + delta^2 * 1 1^T
	ws        nnlsWorkspace
	converged bool      // whether the last Unmix's solve converged
	atb       []float64 // one slot per endmember
	y64, res  []float64
}

// nnlsWorkspace holds the per-solve scratch of the Gram-form
// Lawson-Hanson iteration.
type nnlsWorkspace struct {
	x, w, z, rhs, chy []float64
	passive           []bool
	idx               []int
	sub, chol         *Mat
}

func newNNLSWorkspace(n int) nnlsWorkspace {
	return nnlsWorkspace{
		x:       make([]float64, n),
		w:       make([]float64, n),
		z:       make([]float64, n),
		rhs:     make([]float64, n),
		chy:     make([]float64, n),
		passive: make([]bool, n),
		idx:     make([]int, 0, n),
		sub:     NewMat(n, n),
		chol:    NewMat(n, n),
	}
}

// nnlsTol is the Gram-form solve's threshold on duals and passive values.
const nnlsTol = 1e-10

// solve solves min ||A x - b||^2 s.t. x >= 0 given only ata = A^T A
// (n x n, SPD) and atb = A^T b: Lawson-Hanson with the dual vector
// w = atb - ata*x and each passive-set solve on the matching submatrix of
// ata. The returned slice aliases the workspace and is valid until the
// next call. The flag reports convergence: false when the iteration cap
// ended the solve, whose iterate then meets no optimality condition.
func (ws *nnlsWorkspace) solve(ata *Mat, atb []float64) ([]float64, bool, error) {
	n := ata.Rows
	if ata.Cols != n || len(atb) != n || n > len(ws.x) {
		return nil, false, fmt.Errorf("linalg: Gram-form NNLS shape mismatch %dx%d with %d (workspace %d)", ata.Rows, ata.Cols, len(atb), len(ws.x))
	}
	x := ws.x[:n]
	w := ws.w[:n]
	passive := ws.passive[:n]
	for j := 0; j < n; j++ {
		x[j] = 0
		passive[j] = false
	}
	const tol = nnlsTol
	for outer := 0; outer < nnlsMaxOuter(n); outer++ {
		// Dual vector w = atb - ata*x.
		for j := 0; j < n; j++ {
			s := atb[j]
			row := ata.Row(j)
			for k := 0; k < n; k++ {
				if x[k] != 0 {
					s -= row[k] * x[k]
				}
			}
			w[j] = s
		}
		best, bestW := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			return x, true, nil
		}
		passive[best] = true
		for {
			idx := ws.idx[:0]
			for j := 0; j < n; j++ {
				if passive[j] {
					idx = append(idx, j)
				}
			}
			k := len(idx)
			if k == 0 {
				break
			}
			z, err := ws.solvePassive(ata, atb, idx)
			if err != nil {
				return nil, false, err
			}
			neg := false
			for p := 0; p < k; p++ {
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
				break
			}
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
		}
	}
	// Iteration cap hit (rare numerical cycling): the current iterate is
	// feasible; return it rather than failing the whole image over one
	// pathological pixel, and say so.
	return x, false, nil
}

// solvePassive solves the passive-set normal equations with an in-place
// Cholesky factorization in the workspace.
func (ws *nnlsWorkspace) solvePassive(ata *Mat, atb []float64, idx []int) ([]float64, error) {
	k := len(idx)
	sub := ws.sub
	rhs := ws.rhs[:k]
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			sub.Data[p*sub.Cols+q] = ata.At(idx[p], idx[q])
		}
		// Relative ridge: keeps nearly collinear endmembers solvable
		// without distorting well-conditioned systems.
		sub.Data[p*sub.Cols+p] = sub.Data[p*sub.Cols+p]*(1+1e-10) + 1e-12
		rhs[p] = atb[idx[p]]
	}
	// Cholesky of the k x k leading block of sub (stride sub.Cols).
	l := ws.chol
	stride := l.Cols
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			sum := sub.Data[i*sub.Cols+j]
			for t := 0; t < j; t++ {
				sum -= l.Data[i*stride+t] * l.Data[j*stride+t]
			}
			if i == j {
				if sum <= 1e-14 {
					return nil, ErrSingular
				}
				l.Data[i*stride+i] = math.Sqrt(sum)
			} else {
				l.Data[i*stride+j] = sum / l.Data[j*stride+j]
			}
		}
	}
	y := ws.chy[:k]
	for i := 0; i < k; i++ {
		sum := rhs[i]
		for t := 0; t < i; t++ {
			sum -= l.Data[i*stride+t] * y[t]
		}
		y[i] = sum / l.Data[i*stride+i]
	}
	z := ws.z[:k]
	for i := k - 1; i >= 0; i-- {
		sum := y[i]
		for t := i + 1; t < k; t++ {
			sum -= l.Data[t*stride+i] * z[t]
		}
		z[i] = sum / l.Data[i*stride+i]
	}
	return z, nil
}

// NewFCLSSolver precomputes the augmented Gram matrix for the endmember
// matrix m (bands x t, one endmember per column). Each Gram entry is an
// independent dot product of two endmember rows of M^T, so rows of the
// upper triangle fan out over the par worker budget with byte-identical
// results at any parallelism.
func NewFCLSSolver(m *Mat) *FCLSSolver {
	t := m.Cols
	mt := NewMat((t+3)/4*4, m.Rows)
	for b := 0; b < m.Rows; b++ {
		for j, v := range m.Row(b) {
			mt.Set(j, b, v)
		}
	}
	ata := NewMat(t, t)
	par.Lines(t, 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i; j < t; j++ {
				s := Dot(mt.Row(i), mt.Row(j)) + FCLSDelta*FCLSDelta
				ata.Set(i, j, s)
				ata.Set(j, i, s)
			}
		}
	})
	return &FCLSSolver{
		mt:  mt,
		mtp: vec.PackRows(mt.Cols, mt.Data[:t*m.Rows]),
		ata: ata,
		ws:  newNNLSWorkspace(t),
		atb: make([]float64, t),
		y64: make([]float64, m.Rows),
		res: make([]float64, m.Rows),
	}
}

// Endmembers returns the number of endmembers t.
func (f *FCLSSolver) Endmembers() int { return f.ata.Rows }

// Bands returns the band count of the endmember matrix.
func (f *FCLSSolver) Bands() int { return f.mt.Cols }

func (f *FCLSSolver) checkBands(n int) error {
	if n != f.Bands() {
		return fmt.Errorf("linalg: Unmix on %d-vector, want %d bands", n, f.Bands())
	}
	return nil
}

// Unmix solves FCLS for pixel y, returning the abundance vector and the
// squared reconstruction error ||M alpha - y||^2. The returned abundance
// slice aliases the solver's workspace and is only valid until the next
// Unmix call; copy it if it must outlive the call.
//
// Both band-length passes read M^T row by row and keep the addends and
// order of the column-order loops they replace (DESIGN.md "Kernel
// exactness"): each entry of M^T y has one accumulator adding in band
// order (vec.Panel.Dots), then delta^2; each band's residual starts at -y
// and adds every endmember's term in endmember order, four endmembers per
// vec.AddProducts4 pass, the padding rows adding -0 (see negZero) — zero
// abundances included, so an infinite endmember sample still contributes
// its Inf*0 = NaN.
func (f *FCLSSolver) Unmix(y []float64) (alpha []float64, err2 float64, err error) {
	if err := f.checkBands(len(y)); err != nil {
		return nil, 0, err
	}
	mt, n := f.mt, len(y)
	// Augmented A^T b = M^T y + delta^2 (sum-to-one row contributes
	// delta * delta*1).
	f.mtp.Dots(y, 0, f.atb)
	for j := range f.atb {
		f.atb[j] += FCLSDelta * FCLSDelta
	}
	alpha, f.converged, err = f.ws.solve(f.ata, f.atb)
	if err != nil {
		return nil, 0, err
	}
	// Error in the original (unaugmented) system.
	res := f.res[:n]
	for b, v := range y {
		res[b] = -v
	}
	for j := 0; j < len(alpha); j += 4 {
		a := [4]float64{negZero, negZero, negZero, negZero}
		copy(a[:], alpha[j:])
		vec.AddProducts4(res, a, mt.Row(j)[:n], mt.Row(j + 1)[:n], mt.Row(j + 2)[:n], mt.Row(j + 3)[:n])
	}
	for _, r := range res {
		err2 += r * r
	}
	return alpha, err2, nil
}

// UnmixF32 is Unmix for a float32 pixel vector; the same workspace
// aliasing rules apply.
func (f *FCLSSolver) UnmixF32(y []float32) (alpha []float64, err2 float64, err error) {
	if err := f.checkBands(len(y)); err != nil {
		return nil, 0, err
	}
	return f.Unmix(Widen(f.y64, y))
}

// UnmixBound is UnmixF32 returning, instead of alpha, the augmented
// objective J = err2 + delta^2 (sum(alpha) - 1)^2: up to BoundSlack, the
// pixel's error bound against any endmembers appended to these. It is NaN
// when the solve did not converge or J is not finite.
func (f *FCLSSolver) UnmixBound(y []float32) (err2, bound float64, err error) {
	alpha, err2, err := f.UnmixF32(y)
	if err != nil {
		return 0, 0, err
	}
	bound = math.NaN()
	if f.converged {
		var sum float64
		for _, a := range alpha {
			sum += a
		}
		if j := err2 + FCLSDelta*FCLSDelta*(sum-1)*(sum-1); !math.IsInf(j, 0) {
			bound = j
		}
	}
	return err2, bound, nil
}

// BoundSlack returns epsilon, four times DESIGN.md "Kernel exactness" rule
// 6: a pixel with a bound B <= score from a prefix of these endmembers
// has an error of at most B + epsilon here if its solve here converges.
// It is +Inf for a negative or NaN score or a Gram matrix out of reach.
func (f *FCLSSolver) BoundSlack(score float64) float64 {
	const u, d2 = 0x1p-53, FCLSDelta * FCLSDelta
	var g float64 // max |ata_ij|; NaN or Inf when ata holds one
	for _, v := range f.ata.Data {
		g = math.Max(g, math.Abs(v))
	}
	lam := float64(f.Bands()+4*f.Endmembers()+16) * u
	if !(score >= 0) || !(lam*(g+d2) <= 1e-5) || !((1e-10+4*lam)*g <= 1) {
		return math.Inf(1)
	}
	z := 2*score + 1                                   // bounds the earlier solve's exact J
	s := 2 + 3*math.Sqrt(2*z+1)/FCLSDelta              // bounds every sum(alpha)
	rg := math.Sqrt(g)                                 // bounds every endmember norm
	y := math.Sqrt(z) + rg*s                           // bounds the pixel's norm
	rho := (1e-10+2*lam)*g + 3e-12                     // ridge plus Cholesky backward error
	v := y + rg*s                                      // bounds the residual terms
	return 4 * (2*u*z + 3*lam*(2*v*v+d2*(s+1)*(s+1)) + // rounding of err2 and J
		2*nnlsTol*s + 4*rho*s*s + // dual tolerance and ridged passive solves
		lam*s*(10*rg*y+10*d2+8*g*s)) // rounding of M^T y, the Gram and w
}

// FlopsFCLSGram is the per-pixel cost of the Gram-form FCLS: forming
// M^T y and the residual in the band dimension, plus the t-dimensional
// active-set iteration.
func FlopsFCLSGram(bands, t int) float64 {
	bf, tf := float64(bands), float64(t)
	inner := tf/2 + 2 // typical active-set iterations
	return 2*bf*tf +  // M^T y
		2*bf*tf + // reconstruction error
		inner*(2*tf*tf+tf*tf*tf/6) // dual vector + Cholesky solves
}
