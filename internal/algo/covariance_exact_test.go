package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/spectral"
)

// covarianceUpperRef is the loop covarianceUpper replaced: one rank-1
// pass over the upper triangle per finite pixel, in the same chunks.
func covarianceUpperRef(f *cube.Cube, mean []float64, acc *linalg.Mat) {
	n := f.Bands
	np := f.NumPixels()
	chunks := par.Chunks(np, 2048)
	bufs := make([][]float64, chunks)
	par.Ranges(np, chunks, func(c, lo, hi int) {
		buf := make([]float64, len(acc.Data))
		d := make([]float64, n)
		for p := lo; p < hi; p++ {
			v := f.PixelAt(p)
			if !spectral.Finite(v) {
				continue
			}
			for i := 0; i < n; i++ {
				d[i] = float64(v[i]) - mean[i]
			}
			for i := 0; i < n; i++ {
				row := buf[i*n : (i+1)*n]
				di := d[i]
				for j := i; j < n; j++ {
					row[j] += di * d[j]
				}
			}
		}
		bufs[c] = buf
	})
	for _, buf := range bufs {
		for i, v := range buf {
			acc.Data[i] += v
		}
	}
}

// checkCovariance compares covarianceUpper with the reference on f, bit
// for bit (a NaN entry must be NaN in both), about the mean of f's finite
// pixels.
func checkCovariance(t *testing.T, name string, f *cube.Cube) {
	t.Helper()
	sum, count := finiteMeanSums(f)
	mean := make([]float64, f.Bands)
	for b := range mean {
		mean[b] = sum[b] / float64(max(count, 1))
	}
	got, want := linalg.NewMat(f.Bands, f.Bands), linalg.NewMat(f.Bands, f.Bands)
	covarianceUpper(f, mean, got)
	covarianceUpperRef(f, mean, want)
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: entry (%d, %d) is %v, one pixel per pass gives %v", name, i/f.Bands, i%f.Bands, g, w)
		}
	}
}

// randCube fills a cube with samples whose products round, so a change
// in the order of the additions changes the bits.
func randCube(rng *rand.Rand, np, bands int) *cube.Cube {
	f := cube.MustNew(np, 1, bands)
	for i := range f.Data {
		f.Data[i] = float32(100 + 900*rng.Float64())
	}
	return f
}

func TestCovarianceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for bands := 1; bands <= 70; bands++ {
		for _, np := range []int{1, 2, 3, 4, 5, 7, 9, 14} {
			f := randCube(rng, np, bands)
			checkCovariance(t, fmt.Sprintf("%d bands, %d pixels", bands, np), f)
			// A NaN pixel at each position shifts every later block of
			// four by one; two at a block edge shift it by two.
			for _, nan := range [][]int{{0}, {3}, {4}, {np - 1}, {3, 4}, {2, 3, 4, 5}} {
				g := randCube(rng, np, bands)
				for _, p := range nan {
					if p >= 0 && p < np {
						g.PixelAt(p)[rng.Intn(bands)] = float32(math.NaN())
					}
				}
				checkCovariance(t, fmt.Sprintf("%d bands, %d pixels, NaN at %v", bands, np, nan), g)
			}
		}
	}
}

// Chunks of 2048 pixels: chunk edges fall inside, at and next to blocks
// of four, with NaN pixels on both sides of an edge, and every chunk's
// partial triangle is folded as before.
func TestCovarianceMatchesReferenceAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, bands := range []int{3, 17, 64} {
		for _, np := range []int{2047, 2048, 2049, 4096, 4101, 6150} {
			f := randCube(rng, np, bands)
			checkCovariance(t, fmt.Sprintf("%d bands, %d pixels", bands, np), f)
			for _, p := range []int{2046, 2047, 2048, np / 2, np/2 + 1} {
				if p < np {
					f.PixelAt(p)[0] = float32(math.Inf(1))
				}
			}
			checkCovariance(t, fmt.Sprintf("%d bands, %d pixels, non-finite at the chunk edges", bands, np), f)
		}
	}
}

// FuzzCovarianceMatchesReference decodes bands (1-70), a pixel count
// (1-4200, so one to three 2048-pixel chunks) and samples cut from data
// four bytes at a time and reused cyclically: a top byte of 0x7f makes a
// NaN, any other pattern a value of magnitude [0.5, 1) with the pattern's
// sign and mantissa, so products round.
func FuzzCovarianceMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, uint8(2), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, bands uint8, pixels uint16) {
		n, np := int(bands%70)+1, int(pixels%4200)+1
		samples := make([]float32, len(data)/4)
		if len(samples) == 0 {
			return
		}
		for i := range samples {
			u := binary.LittleEndian.Uint32(data[4*i:])
			if u>>24 == 0x7f {
				samples[i] = float32(math.NaN())
			} else {
				samples[i] = math.Float32frombits(u&0x807fffff | 0x3f000000)
			}
		}
		c := cube.MustNew(np, 1, n)
		for i := range c.Data {
			c.Data[i] = samples[i%len(samples)]
		}
		checkCovariance(t, "fuzz", c)
	})
}

// reduceCube's projection (the pixel centred once, T's rows from a
// vec.Panel) is the row-by-row loop's bits for every component count,
// including pixels with NaN or infinite samples.
func TestReduceCubeMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := exactScene(t, 24, 16, 20, 4)
	copy(f.PixelAt(5), []float32{float32(math.NaN())})
	f.PixelAt(9)[3] = float32(math.Inf(-1))
	mean := make([]float64, f.Bands)
	for i := range mean {
		mean[i] = rng.Float64()
	}
	for _, c := range []int{1, 3, 4, 7, 17} {
		tm := linalg.NewMat(c, f.Bands)
		for i := range tm.Data {
			tm.Data[i] = rng.NormFloat64()
		}
		got, _ := reduceCube(f, tm, mean)
		want := make([]float64, c)
		for p := range got {
			projectRowByRow(tm, mean, f.PixelAt(p), want)
			for k := range want {
				if g, w := got[p][k], want[k]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%d components, pixel %d, component %d: %v, row by row %v", c, p, k, got[p][k], want[k])
				}
			}
			if len(got[p]) != c || cap(got[p]) != c {
				t.Fatalf("%d components, pixel %d: len %d cap %d", c, p, len(got[p]), cap(got[p]))
			}
		}
	}
}
