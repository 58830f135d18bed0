package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDenseMatchesFactoredApply(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	u := randMat(rng, 3, 14)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	dense := p.Dense()
	if dense.Rows != 14 || dense.Cols != 14 {
		t.Fatalf("dense shape %dx%d", dense.Rows, dense.Cols)
	}
	for trial := 0; trial < 20; trial++ {
		y32 := make([]float32, 14)
		y64 := make([]float64, 14)
		for i := range y32 {
			y32[i] = float32(rng.NormFloat64())
			y64[i] = float64(y32[i])
		}
		got := DenseScore(dense, y32)
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
	d := p.Dense()
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
	if FlopsOSPDenseApply(224) <= FlopsOSPApply(18, 224) {
		t.Error("dense apply at t=18 should cost more than factored")
	}
	if FlopsOSPDenseApply(10) <= 0 {
		t.Error("dense apply cost not positive")
	}
}

// denseScoreRowByRow is the scalar loop DenseScoreWide replaces: one row
// at a time, the pixel widened inside the inner loop.
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

// The blocked score must be the same bits as the row-by-row one for every
// block remainder, including rows and samples that are NaN or infinite.
func TestDenseScoreMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	wide := make([]float64, 70)
	for n := 1; n <= 70; n++ {
		for _, rows := range []int{n, n + 1, n + 2, n + 3} {
			p := randMat(rng, rows, n)
			y := make([]float32, n)
			for i := range y {
				y[i] = float32(rng.NormFloat64())
			}
			switch rng.Intn(6) {
			case 0:
				p.Set(rng.Intn(rows), rng.Intn(n), math.NaN())
			case 1:
				p.Set(rng.Intn(rows), rng.Intn(n), math.Inf(1))
			case 2:
				y[rng.Intn(n)] = float32(math.Inf(-1))
			case 3:
				y = make([]float32, n)
			}
			want := denseScoreRowByRow(p, y)
			for name, got := range map[string]float64{
				"DenseScore":     DenseScore(p, y),
				"DenseScoreWide": DenseScoreWide(p, Widen(wide, y)),
			} {
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%dx%d: %s = %v, row by row %v", rows, n, name, got, want)
				}
			}
		}
	}
}

func TestDenseScoreLengthMismatchPanics(t *testing.T) {
	p := Identity(4)
	for _, n := range []int{3, 5} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%d-vector against 4 columns did not panic", n)
				}
				if msg, _ := r.(string); msg != fmt.Sprintf("linalg: DenseScore on %d-vector, want 4", n) {
					t.Errorf("panic %q does not name the lengths", r)
				}
			}()
			DenseScore(p, make([]float32, n))
		}()
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
	u := NewMat(1, 3)
	copy(u.Row(0), []float64{1, 0, 0})
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.ApplyF32(y, buf) }); n > 2 {
		// Apply's own two MulVec results; the widening adds none.
		t.Errorf("ApplyF32 with a buffer allocates %v times per call", n)
	}
}
