package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/scene"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := MatFromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if !almostEq(e.Values[i], v, 1e-10) {
			t.Errorf("eigenvalue %d = %v, want %v", i, e.Values[i], v)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := MatFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 3, 1e-10) || !almostEq(e.Values[1], 1, 1e-10) {
		t.Errorf("eigenvalues = %v", e.Values)
	}
	// Leading eigenvector is (1,1)/sqrt(2) up to sign.
	v0 := []float64{e.Vectors.At(0, 0), e.Vectors.At(1, 0)}
	if !almostEq(math.Abs(v0[0]), 1/math.Sqrt2, 1e-9) || !almostEq(math.Abs(v0[1]), 1/math.Sqrt2, 1e-9) {
		t.Errorf("leading eigenvector = %v", v0)
	}
}

func TestSymEigenRejectsBadInput(t *testing.T) {
	if _, err := SymEigen(NewMat(2, 3)); err == nil {
		t.Error("non-square: expected error")
	}
	asym := MatFromRows([][]float64{{1, 2}, {5, 1}})
	if _, err := SymEigen(asym); err == nil {
		t.Error("asymmetric: expected error")
	}
}

// reconstructs A from the decomposition and compares.
func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		// Build a random symmetric matrix B = C + C^T.
		c := randMat(rng, n, n)
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, c.At(i, j)+c.At(j, i))
			}
		}
		e, err := SymEigen(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reconstruct V diag(values) V^T.
		d := NewMat(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, e.Values[i])
		}
		rec := Mul(Mul(e.Vectors, d), e.Vectors.T())
		if !matsAlmostEq(rec, a, 1e-7) {
			t.Fatalf("trial %d: reconstruction failed", trial)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, e.Values)
			}
		}
	}
}

func TestSymEigenVectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 12
	c := randMat(rng, n, n)
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, c.At(i, j)+c.At(j, i))
		}
	}
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv := Mul(e.Vectors.T(), e.Vectors)
	if !matsAlmostEq(vtv, Identity(n), 1e-8) {
		t.Error("eigenvector matrix not orthonormal")
	}
}

func TestSymEigenCovarianceLike(t *testing.T) {
	// A covariance-like PSD matrix: eigenvalues must be non-negative.
	rng := rand.New(rand.NewSource(29))
	x := randMat(rng, 30, 6)
	cov := Mul(x.T(), x)
	e, err := SymEigen(cov)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range e.Values {
		if v < -1e-8 {
			t.Errorf("eigenvalue %d = %v negative for PSD input", i, v)
		}
	}
}

// symEigenRef is SymEigen with the rotation loops it replaced: three
// At/Set loops per rotation over columns p and q of w, rows p and q of w,
// and columns p and q of V, with V kept untransposed.
func symEigenRef(a *Mat) *Eigen {
	n := a.Rows
	var scale float64
	for _, v := range a.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	w := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*math.Max(scale*scale, 1) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	eig := &Eigen{Values: make([]float64, n), Vectors: NewMat(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = w.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool { return diag[order[x]] > diag[order[y]] })
	for rank, idx := range order {
		eig.Values[rank] = diag[idx]
		for r := 0; r < n; r++ {
			eig.Vectors.Set(r, rank, v.At(r, idx))
		}
	}
	return eig
}

// sceneCovariance returns the band covariance of the 96x64x64 seed-1
// Table 5 scene, the matrix PCT decomposes.
func sceneCovariance(tb testing.TB) *Mat {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	f := sc.Cube
	n, np := f.Bands, f.NumPixels()
	mean := make([]float64, n)
	for p := 0; p < np; p++ {
		for b, x := range f.PixelAt(p) {
			mean[b] += float64(x)
		}
	}
	for b := range mean {
		mean[b] /= float64(np)
	}
	cov := NewMat(n, n)
	for p := 0; p < np; p++ {
		px := f.PixelAt(p)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				cov.Data[i*n+j] += (float64(px[i]) - mean[i]) * (float64(px[j]) - mean[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.At(i, j) / float64(np)
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov
}

// SymEigen returns the reference's bits: every eigenvalue and every
// eigenvector entry, on random symmetric matrices, a random covariance
// and the Table 5 scene's covariance.
func TestSymEigenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(name string, a *Mat) {
		t.Helper()
		got, err := SymEigen(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := symEigenRef(a)
		for i, v := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d is %v, reference %v", name, i, got.Values[i], v)
			}
		}
		for i, v := range want.Vectors.Data {
			if math.Float64bits(got.Vectors.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: vector entry (%d, %d) is %v, reference %v", name, i/a.Rows, i%a.Rows, got.Vectors.Data[i], v)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 17, 64} {
		c := randMat(rng, n, n)
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, c.At(i, j)+c.At(j, i))
			}
		}
		check(fmt.Sprintf("symmetric %dx%d", n, n), a)
		x := randMat(rng, 3*n, n)
		check(fmt.Sprintf("covariance %dx%d", n, n), Mul(x.T(), x))
	}
	check("Table 5 scene covariance", sceneCovariance(t))
}

// BenchmarkKernelSymEigen is PCT's eigendecomposition of the Table 5
// scene's 64x64 band covariance.
func BenchmarkKernelSymEigen(b *testing.B) {
	cov := sceneCovariance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(cov); err != nil {
			b.Fatal(err)
		}
	}
}
