package morph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/scene"
	"repro/internal/spectral"
)

// naiveDistanceMap is Eq. 2 as written: every pixel of rows [lo, hi) sums
// the scalar SAD to each neighbour in (dl, ds) order, both norms
// recomputed and every pair evaluated from both ends. The distance map
// MEIRange fills must hold the same bits.
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

// cloneCube returns a deep copy of c.
func cloneCube(c *cube.Cube) *cube.Cube {
	return &cube.Cube{Lines: c.Lines, Samples: c.Samples, Bands: c.Bands, Data: slices.Clone(c.Data)}
}

// naiveMEIRange is the AMEE loop over naiveDistanceMap and the scalar SAD.
func naiveMEIRange(f *cube.Cube, se StructuringElement, imax, ownedLo, ownedHi int) ([]float64, *cube.Cube) {
	clamp := func(v int) int { return max(0, min(v, f.Lines)) }
	cur := cloneCube(f)
	scores := make([]float64, f.NumPixels())
	for it := 0; it < imax; it++ {
		reach := se.RadiusL * (imax - 1 - it)
		outLo, outHi := clamp(ownedLo-reach), clamp(ownedHi+reach)
		dist := naiveDistanceMap(cur, se, clamp(outLo-se.RadiusL), clamp(outHi+se.RadiusL))
		next := cloneCube(cur)
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

// patchCube is exactCube painted over with flat rectangles of five
// signatures (one of them zero, one with a NaN sample): dense flat
// patches, where dilations copy equal and neighbouring sources and most
// angles are settled without a dot product.
func patchCube(rng *rand.Rand, lines, samples, bands int) *cube.Cube {
	f := exactCube(rng, lines, samples, bands)
	sigs := make([][]float32, 5)
	for i := range sigs {
		sigs[i] = make([]float32, bands)
		for j := range sigs[i] {
			if i > 0 {
				sigs[i][j] = rng.Float32()
			}
		}
	}
	sigs[1][rng.Intn(bands)] = float32(math.NaN())
	for n := 0; n < lines*samples/6; n++ {
		l0, s0, sig := rng.Intn(lines), rng.Intn(samples), sigs[rng.Intn(len(sigs))]
		for l := l0; l < min(lines, l0+1+rng.Intn(4)); l++ {
			for s := s0; s < min(samples, s0+1+rng.Intn(4)); s++ {
				f.SetPixel(l, s, sig)
			}
		}
	}
	return f
}

// checkMEIRange fails t unless MEIRange's scores and final cube have the
// bits of naiveMEIRange's.
func checkMEIRange(t *testing.T, f *cube.Cube, se StructuringElement, imax, lo, hi int) {
	t.Helper()
	wantScores, wantFinal := naiveMEIRange(f, se, imax, lo, hi)
	got := MEIRange(f, se, imax, lo, hi)
	for p := range wantScores {
		if math.Float64bits(got.Scores[p]) != math.Float64bits(wantScores[p]) {
			t.Fatalf("%dx%dx%d se %v owned [%d,%d) imax %d: MEI[%d] = %v, naive %v",
				f.Lines, f.Samples, f.Bands, se, lo, hi, imax, p, got.Scores[p], wantScores[p])
		}
	}
	for i := range wantFinal.Data {
		if math.Float32bits(got.Final.Data[i]) != math.Float32bits(wantFinal.Data[i]) {
			t.Fatalf("%dx%dx%d se %v owned [%d,%d) imax %d: final cube differs at %d",
				f.Lines, f.Samples, f.Bands, se, lo, hi, imax, i)
		}
	}
}

func TestDistanceMapRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, se := range []StructuringElement{{1, 1}, {2, 1}, {0, 2}, {0, 0}} {
		for _, bands := range []int{1, 5, 8, 11} {
			f := exactCube(rng, 9, 7, bands)
			for _, r := range [][2]int{{0, 9}, {0, 1}, {0, 4}, {3, 9}, {8, 9}, {2, 6}, {4, 5}} {
				lo, hi := r[0], r[1]
				want := naiveDistanceMap(f, se, lo, hi)
				m := newAMEE(f, se)
				m.distanceMap(lo, hi)
				got, norms := m.dist, m.norms
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

// TestMEIRangeMatchesNaive covers one-line owned ranges at the first and
// the last row and interior spans, where rows the last dilation did not
// write (no choice) sit next to rows it did.
func TestMEIRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, se := range []StructuringElement{{1, 1}, {2, 1}, {0, 2}, {1, 0}, {2, 2}} {
		for _, gen := range []func(*rand.Rand, int, int, int) *cube.Cube{exactCube, patchCube} {
			f := gen(rng, 20, 7, 5)
			for _, r := range [][2]int{{0, 20}, {0, 1}, {19, 20}, {0, 3}, {9, 10}, {6, 13}, {15, 20}} {
				for imax := 1; imax <= 6; imax++ {
					checkMEIRange(t, f, se, imax, r[0], r[1])
				}
			}
		}
	}
}

// fuzzCube decodes a fuzz input into a cube, one byte per pixel read
// cyclically: below 96 the pixel copies its left (even) or upper (odd)
// neighbour, which makes flat patches; 253, 254 and 255 give a zero pixel
// and pixels with a NaN and an Inf sample; any other byte a pixel whose
// samples are small integers drawn from it.
func fuzzCube(data []byte, lines, samples, bands int) *cube.Cube {
	f := cube.MustNew(lines, samples, bands)
	if len(data) == 0 {
		return f
	}
	for p := 0; p < f.NumPixels(); p++ {
		l, s := f.Coord(p)
		v, px := data[p%len(data)], f.PixelAt(p)
		switch {
		case v < 96 && v%2 == 0 && s > 0:
			copy(px, f.Pixel(l, s-1))
		case v < 96 && v%2 == 1 && l > 0:
			copy(px, f.Pixel(l-1, s))
		case v == 253:
		default:
			for i := range px {
				px[i] = float32((int(v) + 7*i) % 5)
			}
			if v == 254 {
				px[0] = float32(math.NaN())
			} else if v == 255 {
				px[bands-1] = float32(math.Inf(1))
			}
		}
	}
	return f
}

func FuzzMEIRangeMatchesNaive(f *testing.F) {
	f.Add([]byte{96, 0, 0, 1, 200, 1, 0, 97, 255, 3}, uint8(11), uint8(6), uint8(4), uint8(4), uint8(3), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, lines, samples, bands, radii, imax, lo, span uint8) {
		nl := 1 + int(lines%16)
		start := int(lo) % nl
		checkMEIRange(t, fuzzCube(data, nl, 1+int(samples%9), 1+int(bands%8)),
			StructuringElement{RadiusL: int(radii % 3), RadiusS: int(radii / 3 % 3)},
			1+int(imax%6), start, start+1+int(span)%(nl-start))
	})
}

// TestMEIRangeReusesPairs pins how many dot products the source map saves
// on the bench's Table 5 scene at the paper's imax: a whole-image run
// without it takes one per neighbour pair and one per erode/dilate angle
// in every iteration. The scene's 96 lines are six row chunks, so the
// run also checks the fan-outs' bits against the naive loop.
func TestMEIRangeReusesPairs(t *testing.T) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, se, imax := sc.Cube, Square(1), 5
	checkMEIRange(t, f, se, imax, 0, f.Lines)
	_, dots := meiRange(f, se, imax, 0, f.Lines)
	L, S := f.Lines, f.Samples
	pairs := imax * (L*(S-1) + (L-1)*S + 2*(L-1)*(S-1))
	meis := imax * L * S
	t.Logf("pair dots %d of %d (%.1f%%), MEI dots %d of %d (%.1f%%)",
		dots[0], pairs, 100*float64(dots[0])/float64(pairs), dots[1], meis, 100*float64(dots[1])/float64(meis))
	if 2*dots[0] > pairs {
		t.Errorf("pair dots %d, more than half of %d", dots[0], pairs)
	}
	if 10*dots[1] > 7*meis {
		t.Errorf("MEI dots %d, more than 70%% of %d", dots[1], meis)
	}
}

// DistanceMap returns D_B for every pixel of f: the sum of spectral angle
// distances between the pixel and every pixel in its B-neighbourhood
// (Eq. 2), with the neighbourhood clamped at the image border. High D_B
// marks spectrally mixed pixels, low D_B spectrally pure ones relative to
// their surroundings.
func DistanceMap(f *cube.Cube, se StructuringElement) []float64 {
	m := newAMEE(f, se)
	m.distanceMap(0, f.Lines)
	return m.dist
}

// ErodeAt returns the coordinates selected by vector erosion at (l,s):
// the neighbourhood pixel with minimal cumulative distance — the most
// highly mixed pixel (Eq. 3). dist must be DistanceMap(f, se).
func ErodeAt(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (int, int) {
	el, es, _, _ := argOver(f, dist, se, l, s)
	return el, es
}

// DilateAt returns the coordinates selected by vector dilation at (l,s):
// the neighbourhood pixel with maximal cumulative distance — the most
// highly pure pixel (Eq. 4).
func DilateAt(f *cube.Cube, dist []float64, se StructuringElement, l, s int) (int, int) {
	_, _, dl, ds := argOver(f, dist, se, l, s)
	return dl, ds
}
