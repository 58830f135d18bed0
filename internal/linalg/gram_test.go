package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNNLSGramMatchesNNLS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		m, n := 5+rng.Intn(10), 1+rng.Intn(5)
		a := randMat(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: NNLS: %v", trial, err)
		}
		ata := Mul(a.T(), a)
		atb := MulVec(a.T(), b)
		ws := newNNLSWorkspace(n)
		got, _, err := ws.solve(ata, atb)
		if err != nil {
			t.Fatalf("trial %d: Gram-form solve: %v", trial, err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-6 {
				t.Fatalf("trial %d: Gram-form solution %v differs from dense %v", trial, got, want)
			}
		}
	}
}

func TestNNLSGramShapeMismatch(t *testing.T) {
	ws := newNNLSWorkspace(2)
	for _, tc := range []struct {
		ata *Mat
		atb []float64
	}{
		{NewMat(2, 3), []float64{1, 2}},   // non-square Gram
		{NewMat(2, 2), []float64{1}},      // wrong atb length
		{Identity(3), []float64{1, 2, 3}}, // larger than the workspace
		{Identity(1), []float64{1}},       // smaller is fine
	} {
		_, _, err := ws.solve(tc.ata, tc.atb)
		if fits := tc.ata.Rows == 1; (err == nil) != fits {
			t.Errorf("%dx%d Gram with %d-vector on a 2-workspace: err = %v", tc.ata.Rows, tc.ata.Cols, len(tc.atb), err)
		}
	}
}

func TestFCLSSolverMatchesFCLS(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bands, tEnd := 24, 5
	m := NewMat(bands, tEnd)
	for i := range m.Data {
		m.Data[i] = math.Abs(rng.NormFloat64()) + 0.05
	}
	solver := NewFCLSSolver(m)
	if solver.Endmembers() != tEnd || solver.Bands() != bands {
		t.Fatalf("solver geometry %d/%d", solver.Endmembers(), solver.Bands())
	}
	for trial := 0; trial < 10; trial++ {
		y := make([]float64, bands)
		for i := range y {
			y[i] = math.Abs(rng.NormFloat64())
		}
		want, err := FCLS(m, y)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := solver.Unmix(y)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-5 {
				t.Fatalf("trial %d: solver %v vs dense %v", trial, got, want)
			}
		}
	}
}

func TestFCLSSolverRecoversMixture(t *testing.T) {
	bands := 30
	m := NewMat(bands, 3)
	for i := 0; i < bands; i++ {
		x := float64(i) / float64(bands-1)
		m.Set(i, 0, 0.9-0.5*x)
		m.Set(i, 1, 0.2+0.7*x)
		m.Set(i, 2, 0.5+0.4*math.Sin(3*x))
	}
	truth := []float64{0.25, 0.45, 0.30}
	y := MulVec(m, truth)
	solver := NewFCLSSolver(m)
	alpha, err2, err := solver.Unmix(y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(alpha[j]-truth[j]) > 2e-3 {
			t.Errorf("alpha[%d] = %v, want %v", j, alpha[j], truth[j])
		}
	}
	if err2 > 1e-6 {
		t.Errorf("reconstruction error %v for exact mixture", err2)
	}
}

func TestFCLSSolverErrorDetectsShadow(t *testing.T) {
	// A pixel that is a scaled-down version of an endmember cannot be
	// explained under the sum-to-one constraint: its reconstruction
	// error must far exceed that of a genuine mixture. This is the
	// mechanism that makes UFCLS chase shadow pixels (Table 3).
	bands := 20
	m := NewMat(bands, 2)
	for i := 0; i < bands; i++ {
		x := float64(i) / float64(bands-1)
		m.Set(i, 0, 0.8-0.3*x)
		m.Set(i, 1, 0.2+0.6*x)
	}
	solver := NewFCLSSolver(m)
	mixture := MulVec(m, []float64{0.5, 0.5})
	shadow := make([]float64, bands)
	for i := range shadow {
		shadow[i] = 0.2 * m.At(i, 0) // deep shadow of endmember 0
	}
	_, errMix, err := solver.Unmix(mixture)
	if err != nil {
		t.Fatal(err)
	}
	_, errShadow, err := solver.Unmix(shadow)
	if err != nil {
		t.Fatal(err)
	}
	if errShadow < 10*errMix+1e-9 {
		t.Errorf("shadow error %v not far above mixture error %v", errShadow, errMix)
	}
}

func TestFCLSSolverUnmixF32(t *testing.T) {
	m := MatFromRows([][]float64{{1, 0}, {0, 1}, {0.5, 0.5}})
	solver := NewFCLSSolver(m)
	// Use dyadic values so float32 -> float64 conversion is exact.
	a32, e32, err := solver.UnmixF32([]float32{0.625, 0.375, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a64, e64, err := solver.Unmix([]float64{0.625, 0.375, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a64 {
		if math.Abs(a32[j]-a64[j]) > 1e-9 {
			t.Error("float32 path diverges")
		}
	}
	if math.Abs(e32-e64) > 1e-12 {
		t.Error("float32 error diverges")
	}
}

// A pixel shorter or longer than the endmembers is an error naming both
// lengths, from either entry point — UnmixF32 used to slice its widening
// buffer first and panic on a long pixel.
func TestFCLSSolverWrongLength(t *testing.T) {
	solver := NewFCLSSolver(MatFromRows([][]float64{{1, 0}, {0, 1}, {0.5, 0.5}, {0.25, 0.75}}))
	for _, n := range []int{0, 1, 3, 4, 5, 9} {
		want := fmt.Sprintf("linalg: Unmix on %d-vector, want 4 bands", n)
		if n == 4 {
			want = ""
		}
		for name, unmix := range map[string]func() error{
			"Unmix":    func() error { _, _, err := solver.Unmix(make([]float64, n)); return err },
			"UnmixF32": func() error { _, _, err := solver.UnmixF32(make([]float32, n)); return err },
		} {
			got := ""
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint("panic: ", r)
					}
				}()
				if err := unmix(); err != nil {
					got = err.Error()
				}
			}()
			if got != want {
				t.Errorf("%s on a %d-vector: %q, want %q", name, n, got, want)
			}
		}
	}
}

// unmixColumnOrder is the parent's FCLSSolver built and run the way it
// was: the Gram matrix and M^T y down M's columns, then the reference
// reconstructionError band by band. Unmix must return its bits.
func unmixColumnOrder(m *Mat, y []float64) ([]float64, float64, error) {
	t := m.Cols
	ata := NewMat(t, t)
	for i := 0; i < t; i++ {
		for j := i; j < t; j++ {
			var s float64
			for b := 0; b < m.Rows; b++ {
				s += m.At(b, i) * m.At(b, j)
			}
			s += FCLSDelta * FCLSDelta
			ata.Set(i, j, s)
			ata.Set(j, i, s)
		}
	}
	atb := make([]float64, t)
	for j := 0; j < t; j++ {
		var s float64
		for b := 0; b < m.Rows; b++ {
			s += m.At(b, j) * y[b]
		}
		atb[j] = s + FCLSDelta*FCLSDelta
	}
	ws := newNNLSWorkspace(t)
	alpha, _, err := ws.solve(ata, atb)
	if err != nil {
		return nil, 0, err
	}
	return append([]float64(nil), alpha...), reconstructionError(m, alpha, y), nil
}

func TestUnmixMatchesColumnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	infAtZero := 0 // cases where an infinite endmember sample met a zero abundance
	for _, tEnd := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 18, 19} {
		for trial := 0; trial < 24; trial++ {
			bands := 1 + rng.Intn(70)
			m := NewMat(bands, tEnd)
			for i := range m.Data {
				m.Data[i] = math.Abs(rng.NormFloat64()) + 0.05
			}
			inf := -1
			if trial%4 == 3 {
				// One endmember sample infinite, as a brightest-pixel
				// target with a ±Inf sample makes it.
				inf = rng.Intn(tEnd)
				m.Set(rng.Intn(bands), inf, math.Inf(1-2*rng.Intn(2)))
			}
			solver := NewFCLSSolver(m)
			for k := 0; k < 6; k++ {
				y := make([]float64, bands)
				for i := range y {
					y[i] = math.Abs(rng.NormFloat64())
				}
				switch k {
				case 1: // an exact endmember: other abundances are zero
					j := rng.Intn(tEnd)
					for b := range y {
						y[b] = m.At(b, j)
					}
				case 2:
					y = make([]float64, bands)
				case 3:
					y[rng.Intn(bands)] = math.NaN()
				}
				want, wantE, wantErr := unmixColumnOrder(m, y)
				got, gotE, gotErr := solver.Unmix(y)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.EqualFunc(got, want, sameBits) || !sameBits(gotE, wantE) {
					t.Fatalf("t=%d bands=%d case %d: Unmix (%v, %v, %v), column order (%v, %v, %v)",
						tEnd, bands, k, got, gotE, gotErr, want, wantE, wantErr)
				}
				if inf >= 0 && gotErr == nil && got[inf] == 0 && math.IsNaN(gotE) {
					infAtZero++
				}
			}
		}
	}
	if infAtZero == 0 {
		t.Fatal("no case put a zero abundance on an infinite endmember: skipping zero abundances would go unnoticed")
	}
}

// sameBits compares bit patterns, except that any two NaNs are equal: when
// two different NaNs meet in a sum, which one survives depends on the
// operand order the compiler picks, and a NaN score never wins a scan.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// fclsPrefixes returns one solver per prefix of m's columns: the solvers
// of successive UFCLS rounds.
func fclsPrefixes(m *Mat) []*FCLSSolver {
	solvers := make([]*FCLSSolver, m.Cols)
	for k := range solvers {
		p := NewMat(m.Rows, k+1)
		for b := 0; b < m.Rows; b++ {
			copy(p.Row(b), m.Row(b)[:k+1])
		}
		solvers[k] = NewFCLSSolver(p)
	}
	return solvers
}

// A pixel's bound from an earlier round, plus the un-headroomed quarter of
// BoundSlack, must cover its error in every later round (DESIGN.md "Kernel
// exactness"). The corpus holds what the derivation worries about:
// endmembers as pixels (J near 0, where rounding is all there is), dim
// and bright multiples of an endmember (the sum-to-one penalty dominates
// J), nearly collinear endmembers (the ridge does the work) and scales
// from 1e-3 to 1e3.
func TestBoundSlackCoversLaterRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	excess, capped := 0.0, 0 // the largest err2_t - J_s seen; later solves with no bound
	for trial := 0; trial < 200; trial++ {
		bands, tg := 1+rng.Intn(40), 2+rng.Intn(11)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		m := NewMat(bands, tg)
		for b := 0; b < bands; b++ {
			for j := 0; j < tg; j++ {
				m.Set(b, j, float64(float32(scale*rng.Float64())))
			}
			if trial%4 == 0 { // column 1 one float32 ulp from column 0
				m.Set(b, 1, float64(float32(m.At(b, 0))*(1+1e-7*float32(rng.Intn(3)-1))))
			}
		}
		solvers := fclsPrefixes(m)
		y := make([]float32, bands)
		for k := 0; k < 12; k++ {
			src := rng.Intn(tg)
			for b := range y {
				switch k % 4 {
				case 0:
					y[b] = float32(scale * rng.Float64())
				case 1:
					y[b] = float32(m.At(b, src))
				default:
					y[b] = float32(m.At(b, src) * []float64{0.2, 3}[k%4-2])
				}
			}
			bounds := make([]float64, tg)
			for r, s := range solvers {
				err2, bound, err := s.UnmixBound(y)
				if err != nil {
					t.Fatal(err)
				}
				for prev, j := range bounds[:r] {
					if math.IsNaN(j) {
						capped++
						continue
					}
					eps := s.BoundSlack(j)
					if !(eps > 0) || math.IsInf(eps, 1) {
						t.Fatalf("trial %d: BoundSlack(%v) = %v with %d endmembers at scale %v", trial, j, eps, r+1, scale)
					}
					if d := err2 - j; d > eps/4 {
						t.Fatalf("trial %d pixel %d: error %v with %d endmembers exceeds the bound %v from %d by %v > epsilon/4 = %v",
							trial, k, err2, r+1, j, prev+1, d, eps/4)
					} else {
						excess = max(excess, d)
					}
				}
				bounds[r] = bound
			}
		}
	}
	t.Logf("largest error above an earlier bound: %v (%d later solves had no bound to check)", excess, capped)
	if !(excess > 0) {
		t.Fatal("no error exceeded an earlier bound: epsilon = 0 would go unnoticed")
	}
}

func TestBoundSlackRefusesWhatItCannotBound(t *testing.T) {
	m := NewMat(3, 2)
	copy(m.Data, []float64{1, 0, 0, 1, 0.5, 0.5})
	s := NewFCLSSolver(m)
	prev := 0.0
	for _, score := range []float64{0, 1e-300, 1, 1e6, 1e300} {
		eps := s.BoundSlack(score)
		if !(eps >= prev && eps > 0) || math.IsInf(eps, 1) {
			t.Fatalf("BoundSlack(%v) = %v after %v", score, eps, prev)
		}
		prev = eps
	}
	for _, score := range []float64{-1, math.NaN(), math.Inf(1)} {
		if eps := s.BoundSlack(score); !math.IsInf(eps, 1) {
			t.Errorf("BoundSlack(%v) = %v, want +Inf", score, eps)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e10} {
		m.Set(0, 1, v)
		if eps := NewFCLSSolver(m).BoundSlack(1); !math.IsInf(eps, 1) {
			t.Errorf("endmember sample %v: BoundSlack = %v, want +Inf", v, eps)
		}
	}
}

// A pixel with a NaN or infinite sample, or an unfinished solve, leaves no
// bound; a converged one leaves err2 plus the sum-to-one penalty.
func TestUnmixBound(t *testing.T) {
	m := NewMat(3, 2)
	copy(m.Data, []float64{1, 0, 0, 1, 0.5, 0.5})
	s := NewFCLSSolver(m)
	y := []float32{0.5, 0.25, 2}
	alpha, wantErr2, err := s.UnmixF32(y)
	if err != nil {
		t.Fatal(err)
	}
	sum := alpha[0] + alpha[1]
	err2, bound, err := s.UnmixBound(y)
	if err != nil || !sameBits(err2, wantErr2) || !sameBits(bound, err2+FCLSDelta*FCLSDelta*(sum-1)*(sum-1)) {
		t.Fatalf("UnmixBound = (%v, %v, %v), want (%v, err2 + penalty)", err2, bound, err, wantErr2)
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		if _, bound, err := s.UnmixBound([]float32{v, 0, 1}); err != nil || !math.IsNaN(bound) {
			t.Errorf("sample %v: bound %v (%v), want NaN", v, bound, err)
		}
	}
	if _, _, err := s.UnmixBound(y[:2]); err == nil {
		t.Error("UnmixBound accepted a 2-vector for 3 bands")
	}
}
