package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewOSPErrors(t *testing.T) {
	if _, err := NewOSP(&Mat{Rows: 0, Cols: 3, Data: nil}); err == nil {
		t.Error("empty target set: expected error")
	}
	// Duplicate rows make U U^T singular.
	dup := MatFromRows([][]float64{{1, 2, 3}, {1, 2, 3}})
	if _, err := NewOSP(dup); err == nil {
		t.Error("dependent targets: expected error")
	}
}

func TestOSPAnnihilatesTargets(t *testing.T) {
	u := MatFromRows([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}})
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	// Any combination of the targets projects to zero.
	if got := p.Apply([]float64{3, -2, 0, 0}, nil); got > 1e-18 {
		t.Errorf("projection of target combo = %v, want 0", got)
	}
	// A vector orthogonal to the targets is unchanged.
	dst := make([]float64, 4)
	got := p.Apply([]float64{0, 0, 5, 1}, dst)
	if !almostEq(got, 26, 1e-10) {
		t.Errorf("orthogonal vector norm = %v, want 26", got)
	}
	if !almostEq(dst[2], 5, 1e-10) || !almostEq(dst[3], 1, 1e-10) {
		t.Errorf("residual = %v", dst)
	}
}

func TestOSPIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := randMat(rng, 3, 12)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 12)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	r1 := make([]float64, 12)
	n1 := p.Apply(y, r1)
	r2 := make([]float64, 12)
	n2 := p.Apply(r1, r2)
	if !almostEq(n1, n2, 1e-8*math.Max(1, n1)) {
		t.Errorf("projector not idempotent: %v then %v", n1, n2)
	}
}

func TestOSPResidualOrthogonalToTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u := randMat(rng, 4, 16)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		y := make([]float64, 16)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		r := make([]float64, 16)
		p.Apply(y, r)
		for row := 0; row < 4; row++ {
			if d := Dot(u.Row(row), r); math.Abs(d) > 1e-8 {
				t.Fatalf("residual not orthogonal to target %d: %v", row, d)
			}
		}
	}
}

func TestOSPNormNeverIncreases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	u := randMat(rng, 2, 10)
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		y := make([]float64, 10)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		if p.Apply(y, nil) > Norm2(y)+1e-9 {
			t.Fatal("projection increased the norm")
		}
	}
}

func TestOSPApplyPanicsOnWrongLength(t *testing.T) {
	u := MatFromRows([][]float64{{1, 0, 0}})
	p, err := NewOSP(u)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong length did not panic")
		}
	}()
	p.Apply([]float64{1, 2}, nil)
}
