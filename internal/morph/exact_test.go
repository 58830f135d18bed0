package morph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/spectral"
)

// naiveDistanceMap is Eq. 2 as written: every pixel of rows [lo, hi) sums
// the scalar SAD to each neighbour in (dl, ds) order, both norms
// recomputed and every pair evaluated from both ends. distanceMapRange
// must return the same bits.
func naiveDistanceMap(f *cube.Cube, se StructuringElement, lo, hi int) []float64 {
	out := make([]float64, f.NumPixels())
	for l := lo; l < hi; l++ {
		for s := 0; s < f.Samples; s++ {
			var sum float64
			for dl := -se.RadiusL; dl <= se.RadiusL; dl++ {
				for ds := -se.RadiusS; ds <= se.RadiusS; ds++ {
					nl, ns := l+dl, s+ds
					if nl < 0 || nl >= f.Lines || ns < 0 || ns >= f.Samples || (dl == 0 && ds == 0) {
						continue
					}
					sum += spectral.SAD(f.Pixel(l, s), f.Pixel(nl, ns))
				}
			}
			out[f.FlatIndex(l, s)] = sum
		}
	}
	return out
}

// naiveMEIRange is the AMEE loop over naiveDistanceMap and the scalar SAD.
func naiveMEIRange(f *cube.Cube, se StructuringElement, imax, ownedLo, ownedHi int) ([]float64, *cube.Cube) {
	clamp := func(v int) int { return max(0, min(v, f.Lines)) }
	cur := f.Clone()
	scores := make([]float64, f.NumPixels())
	for it := 0; it < imax; it++ {
		reach := se.RadiusL * (imax - 1 - it)
		outLo, outHi := clamp(ownedLo-reach), clamp(ownedHi+reach)
		dist := naiveDistanceMap(cur, se, clamp(outLo-se.RadiusL), clamp(outHi+se.RadiusL))
		next := cur.Clone()
		for l := outLo; l < outHi; l++ {
			for s := 0; s < cur.Samples; s++ {
				el, es := ErodeAt(cur, dist, se, l, s)
				dl, ds := DilateAt(cur, dist, se, l, s)
				p := cur.FlatIndex(l, s)
				scores[p] = max(scores[p], spectral.SAD(cur.Pixel(el, es), cur.Pixel(dl, ds)))
				next.SetPixel(l, s, cur.Pixel(dl, ds))
			}
		}
		cur = next
	}
	return scores, cur
}

// exactCube is a random cube with flat patches (exact duplicate
// neighbours), zero pixels and NaN / Inf samples mixed in.
func exactCube(rng *rand.Rand, lines, samples, bands int) *cube.Cube {
	f := cube.MustNew(lines, samples, bands)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	for p := 0; p < f.NumPixels(); p++ {
		l, s := f.Coord(p)
		switch rng.Intn(12) {
		case 0:
			f.SetPixel(l, s, make([]float32, bands))
		case 1:
			f.Pixel(l, s)[rng.Intn(bands)] = float32(math.NaN())
		case 2:
			f.Pixel(l, s)[rng.Intn(bands)] = float32(math.Inf(1))
		case 3, 4, 5:
			if s > 0 {
				f.SetPixel(l, s, f.Pixel(l, s-1))
			}
		}
	}
	return f
}

func TestDistanceMapRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, se := range []StructuringElement{{1, 1}, {2, 1}, {0, 2}, {0, 0}} {
		for _, bands := range []int{1, 5, 8, 11} {
			f := exactCube(rng, 9, 7, bands)
			for _, r := range [][2]int{{0, 9}, {0, 1}, {0, 4}, {3, 9}, {8, 9}, {2, 6}, {4, 5}} {
				lo, hi := r[0], r[1]
				want := naiveDistanceMap(f, se, lo, hi)
				got, norms := distanceMapRange(f, se, lo, hi)
				for p := lo * f.Samples; p < hi*f.Samples; p++ {
					if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
						t.Fatalf("se %v bands %d rows [%d,%d): D_B[%d] = %v, naive %v", se, bands, lo, hi, p, got[p], want[p])
					}
				}
				// The norms MEI reads: every row within reach of the range.
				for p := max(0, lo-se.RadiusL) * f.Samples; p < min(f.Lines, hi+se.RadiusL)*f.Samples; p++ {
					if w := spectral.SqNorm(f.PixelAt(p)); math.Float64bits(norms[p]) != math.Float64bits(w) && !(math.IsNaN(w) && math.IsNaN(norms[p])) {
						t.Fatalf("se %v bands %d rows [%d,%d): norm[%d] = %v, want %v", se, bands, lo, hi, p, norms[p], w)
					}
				}
			}
		}
	}
}

func TestMEIRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, se := range []StructuringElement{{1, 1}, {2, 1}, {0, 2}} {
		f := exactCube(rng, 14, 6, 7)
		for _, r := range [][2]int{{0, 14}, {0, 3}, {5, 9}, {11, 14}} {
			for imax := 1; imax <= 3; imax++ {
				wantScores, wantFinal := naiveMEIRange(f, se, imax, r[0], r[1])
				got := MEIRange(f, se, imax, r[0], r[1])
				for p := range wantScores {
					if math.Float64bits(got.Scores[p]) != math.Float64bits(wantScores[p]) {
						t.Fatalf("se %v owned %v imax %d: MEI[%d] = %v, naive %v", se, r, imax, p, got.Scores[p], wantScores[p])
					}
				}
				for i := range wantFinal.Data {
					if math.Float32bits(got.Final.Data[i]) != math.Float32bits(wantFinal.Data[i]) {
						t.Fatalf("se %v owned %v imax %d: final cube differs at %d", se, r, imax, i)
					}
				}
			}
		}
	}
}
