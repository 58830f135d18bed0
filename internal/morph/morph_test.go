package morph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
)

var (
	matA   = []float32{1, 0, 0, 0}
	matB   = []float32{0, 0, 0, 1}
	matMix = []float32{0.5, 0, 0, 0.5}
)

// twoMaterialCube builds a 6x6x4 cube: columns 0-2 material A, column 3 a
// 50/50 mixture (the boundary), columns 4-5 material B — the structure a
// real material transition has after sensor point-spread mixing.
func twoMaterialCube() *cube.Cube {
	c := cube.MustNew(6, 6, 4)
	for l := 0; l < 6; l++ {
		for s := 0; s < 6; s++ {
			switch {
			case s < 3:
				c.SetPixel(l, s, matA)
			case s == 3:
				c.SetPixel(l, s, matMix)
			default:
				c.SetPixel(l, s, matB)
			}
		}
	}
	return c
}

func TestSquare(t *testing.T) {
	se := Square(1)
	if se.Size() != 9 {
		t.Errorf("3x3 kernel size = %d", se.Size())
	}
	if Square(2).Size() != 25 {
		t.Error("5x5 kernel size wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative radius did not panic")
		}
	}()
	Square(-1)
}

func TestDistanceMapUniformIsZero(t *testing.T) {
	c := cube.MustNew(4, 4, 3)
	for p := 0; p < c.NumPixels(); p++ {
		c.SetPixel(p/4, p%4, []float32{1, 2, 3})
	}
	dist := DistanceMap(c, Square(1))
	for i, d := range dist {
		if d > 1e-6 {
			t.Fatalf("uniform cube D_B[%d] = %v", i, d)
		}
	}
}

func TestDistanceMapBoundaryPixelsScoreHigh(t *testing.T) {
	c := twoMaterialCube()
	dist := DistanceMap(c, Square(1))
	// A pixel at the material boundary must out-score an interior pixel.
	interior := dist[c.FlatIndex(3, 0)]
	boundary := dist[c.FlatIndex(3, 2)]
	if boundary <= interior {
		t.Errorf("boundary D_B %v not above interior %v", boundary, interior)
	}
}

func TestErodeDilateSelectMixedAndPure(t *testing.T) {
	c := twoMaterialCube()
	dist := DistanceMap(c, Square(1))
	// From a near-boundary pixel, dilation must pick a purer (lower D_B)
	// ... no: dilation picks the *max* cumulative distance (most mixed
	// neighbourhood scorer is erosion's complement). Check the defining
	// property instead of semantics: erode <= center <= dilate in D_B.
	for l := 0; l < c.Lines; l++ {
		for s := 0; s < c.Samples; s++ {
			el, es := ErodeAt(c, dist, Square(1), l, s)
			dl, ds := DilateAt(c, dist, Square(1), l, s)
			de := dist[c.FlatIndex(el, es)]
			dd := dist[c.FlatIndex(dl, ds)]
			dc := dist[c.FlatIndex(l, s)]
			if de > dc || dd < dc {
				t.Fatalf("argmin/argmax violated at (%d,%d): %v %v %v", l, s, de, dc, dd)
			}
		}
	}
}

func TestErodeDilateStayInWindow(t *testing.T) {
	c := twoMaterialCube()
	dist := DistanceMap(c, Square(1))
	for l := 0; l < c.Lines; l++ {
		for s := 0; s < c.Samples; s++ {
			for _, fn := range []func(*cube.Cube, []float64, StructuringElement, int, int) (int, int){ErodeAt, DilateAt} {
				nl, ns := fn(c, dist, Square(1), l, s)
				if nl < l-1 || nl > l+1 || ns < s-1 || ns > s+1 {
					t.Fatalf("selection (%d,%d) outside window of (%d,%d)", nl, ns, l, s)
				}
				if nl < 0 || nl >= c.Lines || ns < 0 || ns >= c.Samples {
					t.Fatalf("selection (%d,%d) outside image", nl, ns)
				}
			}
		}
	}
}

func TestMEIHighlightsBoundary(t *testing.T) {
	c := twoMaterialCube()
	res := MEI(c, Square(1), 1)
	if len(res.Scores) != c.NumPixels() {
		t.Fatalf("MEI length %d", len(res.Scores))
	}
	// A pixel beside the boundary sees both a pure interior pixel
	// (erosion) and the highly mixed boundary pixel (dilation): its MEI
	// is the A-to-mixture angle, pi/4. Far-interior pixels see only one
	// material: MEI 0.
	if got := res.Scores[c.FlatIndex(3, 2)]; math.Abs(got-math.Pi/4) > 1e-6 {
		t.Errorf("boundary MEI = %v, want pi/4", got)
	}
	if got := res.Scores[c.FlatIndex(3, 0)]; got > 1e-6 {
		t.Errorf("interior MEI = %v, want 0", got)
	}
}

func TestMEIMonotoneInIterations(t *testing.T) {
	c := twoMaterialCube()
	one := MEI(c, Square(1), 1)
	three := MEI(c, Square(1), 3)
	for i := range one.Scores {
		if three.Scores[i] < one.Scores[i]-1e-12 {
			t.Fatalf("MEI decreased with more iterations at %d", i)
		}
	}
	if three.Flops <= one.Flops {
		t.Error("flop accounting not increasing with iterations")
	}
}

func TestMEIFlopsMatchEstimate(t *testing.T) {
	c := twoMaterialCube()
	res := MEI(c, Square(1), 2)
	want := FlopsMEI(c.NumPixels(), Square(1).Size(), c.Bands, 2)
	if math.Abs(res.Flops-want) > 1e-6*want {
		t.Errorf("MEI flops %v, estimate %v", res.Flops, want)
	}
}

func TestMEIInvalidIterationsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("imax=0 did not panic")
		}
	}()
	MEI(twoMaterialCube(), Square(1), 0)
}

func TestMEIDoesNotMutateInput(t *testing.T) {
	c := twoMaterialCube()
	before := cloneCube(c)
	MEI(c, Square(1), 3)
	for i := range c.Data {
		if c.Data[i] != before.Data[i] {
			t.Fatal("MEI mutated its input")
		}
	}
}

func BenchmarkKernelDistanceMap(b *testing.B) {
	f := cube.MustNew(96, 64, 32)
	rng := rand.New(rand.NewSource(5))
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	se := Square(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceMap(f, se)
	}
}
