package linalg

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// OSP is the orthogonal subspace projector P⊥_U = I - U^T (U U^T)^-1 U of
// Algorithm 2 (ATDCA), for a t x n matrix U whose rows are the target
// signatures found so far.
//
// The projector is never materialized as an n x n matrix: applying it to a
// pixel y costs O(t*n + t^2) as r = y - U^T * ((U U^T)^-1 * (U * y)).
type OSP struct {
	u    *Mat // t x n
	gram *Mat // U U^T, t x t
	gInv *Mat // (U U^T)^-1, t x t
}

// NewOSP builds the projector for the given target matrix. It fails if
// the Gram matrix U U^T is singular (duplicate or linearly dependent
// targets).
func NewOSP(u *Mat) (*OSP, error) {
	if u.Rows == 0 {
		return nil, fmt.Errorf("linalg: OSP of empty target set")
	}
	gram := Gram(u)
	gInv, err := Inverse(gram)
	if err != nil {
		return nil, fmt.Errorf("linalg: OSP targets are linearly dependent: %w", err)
	}
	return &OSP{u: u, gram: gram, gInv: gInv}, nil
}

// Apply projects y onto the orthogonal complement of the row space of U,
// writing the residual into dst (which must have length n) and returning
// its squared norm — the ATDCA score (P⊥_U y)^T (P⊥_U y). dst may be nil,
// in which case only the score is returned.
func (p *OSP) Apply(y []float64, dst []float64) float64 {
	if len(y) != p.u.Cols {
		panic(fmt.Sprintf("linalg: OSP.Apply on %d-vector, want %d", len(y), p.u.Cols))
	}
	// c = U y (t), d = gInv c (t), r = y - U^T d.
	c := MulVec(p.u, y)
	d := MulVec(p.gInv, c)
	var norm float64
	for j := 0; j < p.u.Cols; j++ {
		r := y[j]
		for i := 0; i < p.u.Rows; i++ {
			r -= p.u.At(i, j) * d[i]
		}
		if dst != nil {
			dst[j] = r
		}
		norm += r * r
	}
	return norm
}

// Widen returns y converted to float64. The result lives in buf's
// storage when buf has the capacity — a scan over many pixels passes the
// same band-sized buffer every time and never allocates — and is freshly
// allocated otherwise.
func Widen(buf []float64, y []float32) []float64 {
	if cap(buf) < len(y) {
		buf = make([]float64, len(y))
	}
	buf = buf[:len(y)]
	for i, v := range y {
		buf[i] = float64(v)
	}
	return buf
}

// DenseScan is the dense projector P̂ = I - U^T (U U^T)^-1 U, the form
// Algorithm 2 of the paper applies to every pixel (Apply's factored form
// is cheaper for large n; the dense form is kept because the paper's cost
// profile — ATDCA slower per round than UFCLS — comes from the dense
// application), held as packed rows for Score, with what a scan for the
// pixel of largest Score needs to skip the n² kernel for a pixel that
// provably cannot win (DESIGN.md "Kernel exactness"): the whitened target
// basis Q = L⁻¹U, where U U^T = L L^T, so that I - Q^T Q is the
// projector in factored form, and η, which covers the rounding of both
// forms and the measured gap between them. For every finite pixel y,
//
//	Score(y) <= ‖y‖² - ‖Qy‖² + η‖y‖²,
//
// and the right side costs t·n + n multiply-adds against the kernel's n²
// — or n, when the sums of the last round's Q are carried (FilterSum).
//
// Score and Skip work in buffers the scan keeps, which makes a DenseScan
// single-goroutine: each rank builds its own.
type DenseScan struct {
	rows  *vec.Panel // P̂'s rows, for Score
	q     *Mat       // Q, then three zero rows: a pass of four may start at any row
	qRows *vec.Panel // q's rows, for extend
	t     int        // rows of Q
	eta   float64    // NaN when Q cannot be formed: nothing is then skipped
	wide  []float64  // a pixel widened
	dots  []float64  // its dot products with rows of P̂ or q
}

// DenseScan materializes the dense projector with its filter, one row of
// P̂ at a time, measuring η on each row as it goes: E = ‖P̂ - (I - Q^T Q)‖_F
// and ρ = ‖Q Q^T - I‖_F bound the gap between the two forms by
// ((1+ρ)ρ + 2(1+ρ)E + E²)‖y‖², and 3γ‖P̂‖²_F and 3γ(1 + ‖Q‖²_F) their
// rounding, γ = (n+1)u/(1-(n+1)u); η is four times the sum.
func (p *OSP) DenseScan() *DenseScan {
	t, n := p.u.Rows, p.u.Cols
	s := &DenseScan{rows: vec.NewPanel(n, n), q: NewMat(t+3, n), t: t, eta: math.NaN(),
		wide: make([]float64, n), dots: make([]float64, max(n, t+3))}
	chol, err := cholesky(p.gram)
	filter := err == nil
	var pF, qF, rho, e float64 // all squared until the end
	if filter {
		qF, rho = s.whiten(p.u, chol)
	}
	b := NewMat(t+3, n) // B = gInv * U, then three zero rows
	copy(b.Data, Mul(p.gInv, p.u).Data)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		p.denseRow(row, b, i)
		s.rows.Add(row)
		if !filter {
			continue
		}
		// The row is packed; it now becomes row i of P̂ - (I - Q^T Q).
		for _, v := range row {
			pF += v * v
		}
		row[i]--
		for k := 0; k < t; k += 4 { // row += Σ_k q_ki Q_k, Q's zero rows padding
			a := [4]float64{negZero, negZero, negZero, negZero}
			for l := range min(4, t-k) {
				a[l] = s.q.At(k+l, i)
			}
			vec.AddProducts4(row, a, s.q.Row(k), s.q.Row(k+1), s.q.Row(k+2), s.q.Row(k+3))
		}
		for _, v := range row {
			e += v * v
		}
	}
	if filter {
		rho, e = math.Sqrt(rho), math.Sqrt(e)
		gamma := float64(n+1) * 0x1p-53 / (1 - float64(n+1)*0x1p-53)
		s.eta = 4 * (3*gamma*(pF+1+qF) + (1+rho)*rho + 2*(1+rho)*e + e*e)
	}
	return s
}

// whiten sets Q = L⁻¹U, for the Cholesky factor L of U U^T, packs its
// rows and returns ‖Q‖²_F and ‖Q Q^T - I‖²_F.
func (s *DenseScan) whiten(u, chol *Mat) (qF, rho float64) {
	for i := 0; i < s.t; i++ { // Q_i = (U_i - Σ_{k<i} L_ik Q_k) / L_ii
		qi := s.q.Row(i)
		copy(qi, u.Row(i))
		for k := 0; k < i; k++ {
			lik := chol.At(i, k)
			for j, v := range s.q.Row(k) {
				qi[j] -= lik * v
			}
		}
		for j := range qi {
			qi[j] /= chol.At(i, i)
		}
	}
	s.qRows = vec.PackRows(s.q.Cols, s.q.Data)
	for _, v := range s.q.Data {
		qF += v * v
	}
	for i := 0; i < s.t; i++ {
		for j := 0; j < s.t; j++ {
			d := Dot(s.q.Row(i), s.q.Row(j))
			if i == j {
				d--
			}
			rho += d * d
		}
	}
	return qF, rho
}

// denseRow sets row to row i of P̂ = I - U^T B, where b holds B = gInv * U
// and then three zero rows: e_i minus u_ki * B_k for every nonzero u_ki,
// in k order. A group of four terms without a zero u_ki goes through
// vec.AddProducts4 as additions of (-u_ki) * B_k, which are the
// subtractions' bits; the last group pads with B's zero rows and
// coefficient -0 (see negZero). A group holding a zero u_ki goes one term
// at a time and skips it, as a zero u_ki next to a non-finite B_k must
// not make the row NaN.
func (p *OSP) denseRow(row []float64, b *Mat, i int) {
	clear(row)
	row[i] = 1
	t := p.u.Rows
	for k := 0; k < t; k += 4 {
		a, zero := [4]float64{negZero, negZero, negZero, negZero}, false
		for l := range min(4, t-k) {
			a[l] = -p.u.At(k+l, i)
			zero = zero || a[l] == 0
		}
		if !zero {
			vec.AddProducts4(row, a, b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
			continue
		}
		for l := k; l < min(k+4, t); l++ {
			if uli := p.u.At(l, i); uli != 0 {
				for j, v := range b.Row(l) {
					row[j] -= uli * v
				}
			}
		}
	}
}

// Score returns (P̂y)^T (P̂y) from the projector's packed rows: each row
// sum comes from vec.Panel.Dots, left to right over the bands, and their
// squares are added in row order — the bits of scoring P̂ one row at a
// time.
func (s *DenseScan) Score(y []float32) float64 {
	n := s.q.Cols
	if len(y) != n {
		panic(fmt.Sprintf("linalg: DenseScan on %d-vector, want %d", len(y), n))
	}
	dots := s.dots[:n]
	s.rows.Dots(Widen(s.wide, y), 0, dots)
	var norm float64
	for _, d := range dots {
		norm += d * d
	}
	return norm
}

// A FilterSum is what a pixel's filter keeps between rounds: ‖y‖² and
// the sum of (Q_i·y)² over the first rows of Q, up to rows. The zero
// value has summed nothing. A sum is valid for a scan whose Q begins with
// the rows it summed: the scans of successive ATDCA rounds, whose target
// lists only grow, are such a chain, since row i of Q depends on targets
// 0..i alone (DESIGN.md "Kernel exactness"). A scan without a filter
// (Filters) ends the chain, and its caller drops every sum.
type FilterSum struct {
	ny, qy float64
	rows   int
}

// Filters reports whether the scan can skip a pixel at all: it cannot
// when η is NaN (Q not formed, or a target not finite).
func (s *DenseScan) Filters() bool { return !math.IsNaN(s.eta) }

// Skip reports whether Score(y) is provably below best, so that a scan
// for the maximum may skip y, after bringing sum up to all of Q's rows:
// one new row in one pass over y, or any number in passes of four rows. A NaN or an infinity in the bound — from η, ‖y‖² or ‖Qy‖² —
// is never below anything, so such a pixel goes to the dense kernel.
// Without a filter Skip is false and leaves sum alone.
func (s *DenseScan) Skip(y []float32, sum *FilterSum, best float64) bool {
	if !s.Filters() {
		return false
	}
	if sum.rows < s.t {
		s.extend(y, sum)
	}
	b := sum.ny - sum.qy + s.eta*sum.ny
	return b < best && b > math.Inf(-1)
}

// extend adds the squares of Q's rows sum.rows..t-1 against y to sum.
// The padding rows of Q add exact zeros (or a NaN, which only stops the
// skip). Unlike the dense kernel these sums need no fixed order: η bounds
// their rounding, so the one-row pass splits its dot product four ways.
func (s *DenseScan) extend(y []float32, sum *FilterSum) {
	n := len(y)
	if n != s.q.Cols {
		panic(fmt.Sprintf("linalg: DenseScan on %d-vector, want %d", n, s.q.Cols))
	}
	if i := sum.rows; i > 0 && i == s.t-1 {
		r := s.q.Row(i)[:n]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += r[j] * float64(y[j])
			s1 += r[j+1] * float64(y[j+1])
			s2 += r[j+2] * float64(y[j+2])
			s3 += r[j+3] * float64(y[j+3])
		}
		for ; j < n; j++ {
			s0 += r[j] * float64(y[j])
		}
		d := (s0 + s1) + (s2 + s3)
		sum.qy += d * d
		sum.rows = s.t
		return
	}
	// Passes of four rows from sum.rows, each adding its four squares in
	// row order; the dot products come from the packed rows of q, whose
	// blocks start at multiples of four.
	var yy float64
	w := s.wide[:n]
	for j, v := range y {
		w[j] = float64(v)
		yy += w[j] * w[j]
	}
	lo := sum.rows &^ 3
	hi := sum.rows + (s.t-sum.rows+3)&^3
	dots := s.dots[:hi-lo]
	s.qRows.Dots(w, lo, dots)
	for i := sum.rows - lo; i < len(dots); i += 4 {
		sum.qy += dots[i]*dots[i] + dots[i+1]*dots[i+1] + dots[i+2]*dots[i+2] + dots[i+3]*dots[i+3]
	}
	sum.ny = yy
	sum.rows = s.t
}

// FlopsOSPBuild is the cost of constructing the factored projector for t
// targets of n bands: the Gram matrix plus its inversion.
func FlopsOSPBuild(t, n int) float64 { return FlopsGram(t, n) + FlopsInverse(t) }

// FlopsOSPDenseBuild is the cost of materializing the n x n projector.
func FlopsOSPDenseBuild(t, n int) float64 {
	tf, nf := float64(t), float64(n)
	return FlopsOSPBuild(t, n) + 2*tf*tf*nf + 2*tf*nf*nf
}

// FlopsOSPDenseApply is the per-pixel cost of the dense projector score.
func FlopsOSPDenseApply(n int) float64 {
	nf := float64(n)
	return 2*nf*nf + 2*nf
}
