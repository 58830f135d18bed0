package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestDenseMatchesFactoredApply(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	u := randMat(rng, 3, 14)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	s := p.DenseScan()
	for trial := 0; trial < 20; trial++ {
		y32 := make([]float32, 14)
		y64 := make([]float64, 14)
		for i := range y32 {
			y32[i] = float32(rng.NormFloat64())
			y64[i] = float64(y32[i])
		}
		got := s.Score(y32)
		want := p.Apply(y64, nil)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("trial %d: dense %v vs factored %v", trial, got, want)
		}
	}
}

func TestDenseIsProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	u := randMat(rng, 2, 10)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	d := denseOneTerm(p)
	// P is symmetric and idempotent: P = P^T = P*P.
	if !matsAlmostEq(d, d.T(), 1e-9) {
		t.Error("dense projector not symmetric")
	}
	if !matsAlmostEq(Mul(d, d), d, 1e-8) {
		t.Error("dense projector not idempotent")
	}
	// P annihilates the rows of U.
	for r := 0; r < u.Rows; r++ {
		out := MulVec(d, u.Row(r))
		if math.Sqrt(Norm2(out)) > 1e-8 {
			t.Errorf("dense projector does not annihilate target %d", r)
		}
	}
}

func TestFlopsOSPDense(t *testing.T) {
	if FlopsOSPDenseBuild(3, 50) <= FlopsOSPBuild(3, 50) {
		t.Error("dense build should cost more than factored build")
	}
	if FlopsOSPDenseApply(10) <= 0 {
		t.Error("dense apply cost not positive")
	}
}

// denseScoreRowByRow is the scalar loop DenseScan.Score replaces: one
// row at a time, the pixel widened inside the inner loop.
func denseScoreRowByRow(p *Mat, y []float32) float64 {
	var norm float64
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		var s float64
		for j, v := range y {
			s += row[j] * float64(v)
		}
		norm += s * s
	}
	return norm
}

// Score from the packed rows must be the same bits as the row-by-row
// score of the one-term projector at every band count's block remainder,
// including projectors and samples that are NaN or infinite.
func TestDenseScoreMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	nonFinite := 0
	for n := 1; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			u := randMat(rng, min(n, 1+rng.Intn(12)), n)
			if trial == 0 { // a target with an infinite sample: P̂ is NaN
				u.Set(rng.Intn(u.Rows), rng.Intn(n), math.Inf(1))
			}
			p, err := NewOSP(u)
			if err != nil {
				continue
			}
			if trial == 0 {
				nonFinite++
			}
			s, dense := p.DenseScan(), denseOneTerm(p)
			y := make([]float32, n)
			for i := range y {
				y[i] = float32(rng.NormFloat64())
			}
			switch rng.Intn(4) {
			case 0:
				y[rng.Intn(n)] = float32(math.Inf(-1))
			case 1:
				y[rng.Intn(n)] = float32(math.NaN())
			case 2:
				y = make([]float32, n)
			}
			if got, want := s.Score(y), denseScoreRowByRow(dense, y); !sameBits(got, want) {
				t.Fatalf("%dx%d: Score = %v, row by row %v", u.Rows, n, got, want)
			}
		}
	}
	if nonFinite == 0 {
		t.Fatal("no projector was built from a non-finite target: that path went unchecked")
	}
}

// One DenseScan builds the packed P̂ and nothing else of n² size: no
// row-major copy of the projector, no identity to start it from. Its
// scratch — Q and its packed rows, B, a row, the scan's buffers — is
// O((t+3)·n).
func TestDenseScanAllocatesPackedProjectorAndScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, n := range []int{64, 224} {
		for _, tg := range []int{9, 17} {
			p, err := NewOSP(randMat(rng, tg, n))
			if err != nil {
				t.Fatal(err)
			}
			packed := uint64((n+3)/4*4*n) * 8
			bound := packed + uint64(6*(tg+3)*n*8) + 1024
			least := uint64(math.MaxUint64)
			for range 10 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				p.DenseScan()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%d bands, t = %d: DenseScan allocates %d B; packed P̂ is %d B", n, tg, least, packed)
			if least > bound {
				t.Fatalf("%d bands, t = %d: DenseScan allocates %d B, more than packed P̂ (%d B) and 6·(t+3)·n·8 B + 1 KiB of scratch (%d B)",
					n, tg, least, packed, bound)
			}
		}
	}
}

func TestDenseScanScoreLengthMismatchPanics(t *testing.T) {
	p, err := NewOSP(MatFromRows([][]float64{{1, 2, 0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	s := p.DenseScan()
	for _, n := range []int{3, 5} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%d-vector against 4 bands did not panic", n)
				}
				if msg, _ := r.(string); msg != fmt.Sprintf("linalg: DenseScan on %d-vector, want 4", n) {
					t.Errorf("panic %q does not name the lengths", r)
				}
			}()
			s.Score(make([]float32, n))
		}()
	}
}

// Below is the filter without carried sums, the reference Skip is held
// to: whether Score(y) is provably below best, from
// ‖y‖² and ‖Qy‖² summed afresh.
func (s *DenseScan) Below(y []float64, best float64) bool {
	ny, qy := s.norms(y)
	b := ny - qy + s.eta*ny
	return b < best && b > math.Inf(-1)
}

// norms returns ‖y‖² and ‖Qy‖², four rows of Q per pass over y, each pass
// also summing ‖y‖². The padding rows of Q add exact zeros (or a NaN,
// which only stops the skip). Unlike the dense kernel these sums need no
// fixed order: η bounds their rounding.
func (s *DenseScan) norms(y []float64) (ny, qy float64) {
	n := len(y)
	if n != s.q.Cols {
		panic(fmt.Sprintf("linalg: DenseScan on %d-vector, want %d", n, s.q.Cols))
	}
	for i := 0; i < s.t; i += 4 {
		r0, r1 := s.q.Row(i)[:n], s.q.Row(i + 1)[:n]
		r2, r3 := s.q.Row(i + 2)[:n], s.q.Row(i + 3)[:n]
		var s0, s1, s2, s3, yy float64
		for j, v := range y {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
			yy += v * v
		}
		ny = yy
		qy += s0*s0 + s1*s1 + s2*s2 + s3*s3
	}
	return ny, qy
}

// checkBelow holds DenseScan.Below to its contract for one pixel — Below
// only when the dense score is strictly below best — at bests around the
// dense score d and the filter value f = ‖y‖² - ‖Qy‖², and returns how
// many of those bests lay strictly between f and d: the near-ties an η of
// 0 or -η would wrongly skip.
func checkBelow(t *testing.T, s *DenseScan, y []float64) (between int) {
	t.Helper()
	d := s.Score(narrow(y))
	ny, qy := s.norms(y)
	f := ny - qy
	for _, best := range []float64{-1, 0, f, (f + d) / 2, math.Nextafter(d, math.Inf(-1)), d, math.Nextafter(d, math.Inf(1))} {
		if f < best && best < d {
			between++
		}
		if s.Below(y, best) && !(d < best) {
			t.Fatalf("Below(y, %v) for dense score %v (f = %v, η = %v)\ny = %v", best, d, f, s.eta, y)
		}
	}
	return between
}

// narrow returns y, whose samples are float32 values, as float32.
func narrow(y []float64) []float32 {
	y32 := make([]float32, len(y))
	for i, v := range y {
		y32[i] = float32(v)
	}
	return y32
}

func randPixel(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(float32(rng.NormFloat64()))
	}
	return y
}

func TestDenseScanBoundCoversDenseScore(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	between := 0
	for n := 1; n <= 70; n++ {
		for tg := 1; tg <= min(n, 12); tg++ {
			u := randMat(rng, tg, n)
			p, err := NewOSP(u)
			if err != nil {
				continue
			}
			s := p.DenseScan()
			if !(s.eta > 0) || s.eta > 1e-6 {
				t.Fatalf("%dx%d random targets: η = %v", tg, n, s.eta)
			}
			for k := 0; k < 8; k++ {
				y := randPixel(rng, n)
				switch k {
				case 1:
					y = make([]float64, n)
				case 2: // a target: its projection is rounding noise
					copy(y, u.Row(rng.Intn(tg)))
				case 3:
					y[rng.Intn(n)] = math.NaN()
				case 4:
					y[rng.Intn(n)] = math.Inf(1 - 2*rng.Intn(2))
				case 5:
					for i := range y {
						y[i] *= 0x1p100
					}
				}
				between += checkBelow(t, s, y)
			}
		}
	}
	if between == 0 {
		t.Fatal("no best fell strictly between f(y) and the dense score: η = 0 would go unnoticed")
	}
}

// Targets 1e-7 apart leave both the projector and Q inaccurate: η must
// grow by orders of magnitude to cover the gap it measures, and still
// bound every pixel; well separated ones keep it at the rounding floor.
func TestDenseScanEtaGrowsWhenTargetsNearlyCollinear(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 10; trial++ {
		n, tg := 16+rng.Intn(48), 2+rng.Intn(6)
		u := randMat(rng, tg, n)
		for i := range u.Data {
			u.Data[i] *= 100
		}
		good, err := NewOSP(u)
		if err != nil {
			t.Fatal(err)
		}
		near := u.Clone()
		for j, v := range near.Row(0) {
			near.Set(1, j, v*(1+1e-7*rng.NormFloat64()))
		}
		bad, err := NewOSP(near)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sg, sb := good.DenseScan(), bad.DenseScan()
		// Well separated, the measured gap vanishes next to the rounding
		// terms (12γ(‖P̂‖²_F + 1 + ‖Q‖²_F) < 7e-12 here): a looser η would
		// skip fewer pixels for nothing.
		if !(sg.eta < 1e-10) {
			t.Fatalf("trial %d: η %v for %d well separated targets of %d bands", trial, sg.eta, tg, n)
		}
		if !(sb.eta > 1e3*sg.eta) {
			t.Fatalf("trial %d: η %v for nearly collinear targets, %v for well separated ones", trial, sb.eta, sg.eta)
		}
		for k := 0; k < 16; k++ {
			y := randPixel(rng, n)
			checkBelow(t, sg, y)
			checkBelow(t, sb, y)
		}
	}
}

// prefixScans returns the scans of rounds 1..rows(u): the targets u's
// first k rows in round k, and nil from the first linearly dependent set.
func prefixScans(u *Mat) []*DenseScan {
	var scans []*DenseScan
	for k := 1; k <= u.Rows; k++ {
		p, err := NewOSP(MatFromRows(rowsOf(u)[:k]))
		if err != nil {
			break
		}
		scans = append(scans, p.DenseScan())
	}
	return scans
}

func rowsOf(m *Mat) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Row i of Q depends on targets 0..i alone: every round's Q begins with
// the last round's rows, bit for bit. Carrying the filter's sums from
// round to round rests on this.
func TestDenseScanQRowsArePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(70)
		scans := prefixScans(randMat(rng, min(n, 1+rng.Intn(18)), n))
		for k := 1; k < len(scans); k++ {
			prev, s := scans[k-1], scans[k]
			for i := 0; i < prev.t; i++ {
				for j, v := range prev.q.Row(i) {
					if math.Float64bits(s.q.At(i, j)) != math.Float64bits(v) {
						t.Fatalf("trial %d: Q(%d, %d) is %v with %d targets, %v with %d", trial, i, j, s.q.At(i, j), k+1, v, k)
					}
				}
			}
		}
	}
}

// Skip with sums carried over a chain of rounds keeps Below's contract in
// every round — skip only a pixel whose dense score is strictly below
// best — whether the pixel is first seen in round 1 or later, and
// whether it sat rounds out.
func TestSkipCarriedKeepsBelowContract(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	between := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(70)
		u := randMat(rng, min(n, 1+rng.Intn(12)), n)
		pixels := make([][]float32, 16)
		for i := range pixels {
			pixels[i] = make([]float32, n)
			for j := range pixels[i] {
				pixels[i][j] = float32(rng.NormFloat64())
			}
		}
		copy32(pixels[1], u.Row(0)) // a target: its projection is rounding noise
		pixels[2][rng.Intn(n)] = float32(math.NaN())
		clear(pixels[3])
		sums := make([]FilterSum, len(pixels))
		for k, s := range prefixScans(u) {
			for i, px := range pixels {
				if rng.Intn(4) == 0 && k > 0 {
					continue // sits this round out
				}
				d := s.Score(px)
				sum := sums[i]
				s.Skip(px, &sum, math.Inf(-1)) // only brings the sum up to date
				if sum.rows != s.t {
					t.Fatalf("trial %d round %d: sum covers %d rows of %d", trial, k+1, sum.rows, s.t)
				}
				f := sum.ny - sum.qy
				for _, best := range []float64{-1, 0, f, (f + d) / 2, math.Nextafter(d, math.Inf(-1)), d, math.Nextafter(d, math.Inf(1))} {
					if f < best && best < d {
						between++
					}
					sum := sums[i]
					if s.Skip(px, &sum, best) && !(d < best) {
						t.Fatalf("trial %d round %d pixel %d: Skip(y, %v) for dense score %v (f = %v, η = %v)", trial, k+1, i, best, d, f, s.eta)
					}
				}
				sums[i] = sum
			}
		}
	}
	if between == 0 {
		t.Fatal("no best fell strictly between f(y) and the dense score: η = 0 would go unnoticed")
	}
}

func copy32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Targets with an infinite sample make the projector NaN: η is NaN, and
// nothing is below anything.
func TestDenseScanNaNEtaSkipsNothing(t *testing.T) {
	u := MatFromRows([][]float64{{1, 2, math.Inf(1)}, {0, 1, 0}})
	p, err := NewOSP(u)
	if err != nil {
		t.Skip("singular on this platform:", err)
	}
	s := p.DenseScan()
	if !math.IsNaN(s.eta) {
		t.Fatalf("η = %v, want NaN", s.eta)
	}
	if s.Below([]float64{0, 0, 0}, 1) || s.Below([]float64{1, 1, 1}, math.Inf(1)) {
		t.Fatal("a NaN η let a pixel skip the dense kernel")
	}
}

func TestWidenReusesBuffer(t *testing.T) {
	buf := make([]float64, 8)
	y := []float32{1.5, -2, 3}
	got := Widen(buf, y)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Fatal("Widen did not use the buffer it was given")
	}
	for i, v := range y {
		if got[i] != float64(v) {
			t.Fatalf("Widen[%d] = %v, want %v", i, got[i], v)
		}
	}
	if grown := Widen(buf[:0:2], y); len(grown) != 3 || grown[2] != 3 {
		t.Fatalf("Widen into a short buffer = %v", grown)
	}
}

// extendFourRows is the loop extend's pass over several rows replaces:
// four rows of Q per pass over y, each with its own accumulator in band
// order, the pass also summing ‖y‖².
func (s *DenseScan) extendFourRows(y []float32, sum *FilterSum) {
	n := len(y)
	for i := sum.rows; i < s.t; i += 4 {
		r0, r1 := s.q.Row(i)[:n], s.q.Row(i + 1)[:n]
		r2, r3 := s.q.Row(i + 2)[:n], s.q.Row(i + 3)[:n]
		var s0, s1, s2, s3, yy float64
		for j, v := range y {
			w := float64(v)
			s0 += r0[j] * w
			s1 += r1[j] * w
			s2 += r2[j] * w
			s3 += r3[j] * w
			yy += w * w
		}
		sum.ny = yy
		sum.qy += s0*s0 + s1*s1 + s2*s2 + s3*s3
	}
	sum.rows = s.t
}

// The packed rows of Q give extend the sums of the four-row loop, bit for
// bit, from every starting row that takes that pass, so carrying the
// sums skips exactly the pixels it skipped before.
func TestDenseScanExtendMatchesFourRowPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(70)
		u := randMat(rng, min(n, 1+rng.Intn(18)), n)
		p, err := NewOSP(u)
		if err != nil {
			t.Fatal(err)
		}
		s := p.DenseScan()
		if !s.Filters() {
			continue
		}
		y := make([]float32, n)
		for j := range y {
			y[j] = float32(rng.NormFloat64())
		}
		if trial%5 == 0 {
			y[rng.Intn(n)] = float32(math.Inf(1))
		}
		for rows := 0; rows < s.t; rows++ {
			if rows > 0 && rows == s.t-1 {
				continue // the one-row pass
			}
			prior := FilterSum{ny: rng.Float64(), qy: rng.Float64(), rows: rows}
			got, want := prior, prior
			s.extend(y, &got)
			s.extendFourRows(y, &want)
			if !sameBits(got.ny, want.ny) || !sameBits(got.qy, want.qy) || got.rows != want.rows {
				t.Fatalf("trial %d, %d targets of %d bands, from row %d: extend %+v, four-row loop %+v", trial, s.t, n, rows, got, want)
			}
		}
	}
}

// denseOneTerm is the loop DenseScan's rows of P̂ replaced: row i of I - U^T B subtracts
// u_ki * B_k one k at a time, skipping zero u_ki.
func denseOneTerm(p *OSP) *Mat {
	n, t := p.u.Cols, p.u.Rows
	b := Mul(p.gInv, p.u)
	out := Identity(n)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for k := 0; k < t; k++ {
			uki := p.u.At(k, i)
			if uki == 0 {
				continue
			}
			for j, v := range b.Row(k) {
				row[j] -= uki * v
			}
		}
	}
	return out
}

// etaOneTerm is η as DenseScan measures it, from the projector dense,
// with Q's terms added one k at a time.
func etaOneTerm(s *DenseScan, dense *Mat) float64 {
	n, t := s.q.Cols, s.t
	var pF, qF, rho, e float64
	for _, v := range s.q.Data {
		qF += v * v
	}
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			d := Dot(s.q.Row(i), s.q.Row(j))
			if i == j {
				d--
			}
			rho += d * d
		}
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		copy(d, dense.Row(i))
		for _, v := range d {
			pF += v * v
		}
		d[i]--
		for k := 0; k < t; k++ {
			qki := s.q.At(k, i)
			for j, v := range s.q.Row(k) {
				d[j] += qki * v
			}
		}
		for _, v := range d {
			e += v * v
		}
	}
	rho, e = math.Sqrt(rho), math.Sqrt(e)
	gamma := float64(n+1) * 0x1p-53 / (1 - float64(n+1)*0x1p-53)
	return 4 * (3*gamma*(pF+1+qF) + (1+rho)*rho + 2*(1+rho)*e + e*e)
}

// The projector and η are the one-term loops' bits at target counts on
// both sides of a group of four, with zero samples breaking groups.
func TestDenseScanBuildMatchesOneTermLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	zeroGroups, grouped, nonFinite := 0, 0, 0
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(70)
		u := randMat(rng, min(n, 1+rng.Intn(18)), n)
		if trial%3 == 0 {
			for z := rng.Intn(2 * n); z > 0; z-- {
				u.Set(rng.Intn(u.Rows), rng.Intn(n), 0)
			}
		}
		if trial%5 == 0 { // a target with an infinite sample: B is NaN
			u.Set(rng.Intn(u.Rows), rng.Intn(n), math.Inf(1))
		}
		p, err := NewOSP(u)
		if err != nil {
			continue
		}
		if trial%5 == 0 {
			nonFinite++
		}
		s := p.DenseScan()
		want := denseOneTerm(p)
		packed := reflect.ValueOf(s.rows).Elem().FieldByName("data")
		if packed.Len() != (n+3)/4*4*n {
			t.Fatalf("trial %d, %dx%d: %d packed values for %d rows", trial, u.Rows, n, packed.Len(), n)
		}
		for r := 0; r < n; r++ {
			for j := 0; j < n; j++ { // the vec.Panel layout
				if v := packed.Index(r/4*4*n + 4*j + r%4).Float(); !sameBits(v, want.At(r, j)) {
					t.Fatalf("trial %d, %dx%d: P̂(%d, %d) = %v, one term at a time %v", trial, u.Rows, n, r, j, v, want.At(r, j))
				}
			}
		}
		if eta := etaOneTerm(s, want); s.Filters() && !sameBits(s.eta, eta) {
			t.Fatalf("trial %d, %dx%d: η = %v, one term at a time %v", trial, u.Rows, n, s.eta, eta)
		}
		if u.Rows >= 4 {
			grouped++
			for i := 0; i < n; i++ {
				if u.At(0, i) == 0 || u.At(1, i) == 0 || u.At(2, i) == 0 || u.At(3, i) == 0 {
					zeroGroups++
				}
			}
		}
	}
	if grouped == 0 || zeroGroups == 0 || nonFinite == 0 {
		t.Fatalf("%d trials took groups of four, %d columns had a zero in the first group, %d targets were not finite: a path went unchecked",
			grouped, zeroGroups, nonFinite)
	}
}
