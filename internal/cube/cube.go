// Package cube implements the hyperspectral image cube data structure used
// throughout the repository.
//
// A hyperspectral "image cube" is a stack of hundreds of images collected
// at different wavelengths: every pixel is a vector (its spectral
// signature) of one reflectance sample per band. The AVIRIS scene of the
// paper has 2133x512 pixels and 224 spectral bands (~1 GB). This package
// stores cubes in band-interleaved-by-pixel (BIP) order, which makes the
// pixel vector — the unit every algorithm in the paper operates on — a
// contiguous slice, and provides row-block views used by spatial-domain
// partitioning.
package cube

import (
	"errors"
	"fmt"
	"math"
)

// Cube is a hyperspectral image of Lines x Samples pixels with Bands
// spectral channels per pixel, stored BIP: sample (l,s,b) lives at
// Data[((l*Samples)+s)*Bands + b].
type Cube struct {
	Lines   int // spatial rows
	Samples int // spatial columns
	Bands   int // spectral channels
	Data    []float32
}

// ErrBadShape reports an invalid cube geometry.
var ErrBadShape = errors.New("cube: invalid shape")

// New allocates a zero-filled cube of the given geometry.
func New(lines, samples, bands int) (*Cube, error) {
	if lines <= 0 || samples <= 0 || bands <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", ErrBadShape, lines, samples, bands)
	}
	return &Cube{
		Lines:   lines,
		Samples: samples,
		Bands:   bands,
		Data:    make([]float32, lines*samples*bands),
	}, nil
}

// MustNew is New for statically valid shapes; it panics on error.
func MustNew(lines, samples, bands int) *Cube {
	c, err := New(lines, samples, bands)
	if err != nil {
		panic(err)
	}
	return c
}

// NumPixels returns the number of pixel vectors, Lines*Samples.
func (c *Cube) NumPixels() int { return c.Lines * c.Samples }

// SizeBytes returns the serialized payload size of the cube samples.
func (c *Cube) SizeBytes() int { return len(c.Data) * 4 }

// index returns the offset of (l,s,0).
func (c *Cube) index(l, s int) int { return (l*c.Samples + s) * c.Bands }

// Pixel returns the spectral signature at (line, sample) as a slice view
// into the cube; mutating it mutates the cube.
func (c *Cube) Pixel(line, sample int) []float32 {
	i := c.index(line, sample)
	return c.Data[i : i+c.Bands : i+c.Bands]
}

// PixelAt returns the pixel vector at flat pixel index p (row-major).
func (c *Cube) PixelAt(p int) []float32 {
	i := p * c.Bands
	return c.Data[i : i+c.Bands : i+c.Bands]
}

// At returns the sample at (line, sample, band).
func (c *Cube) At(line, sample, band int) float32 {
	return c.Data[c.index(line, sample)+band]
}

// Set stores v at (line, sample, band).
func (c *Cube) Set(line, sample, band int, v float32) {
	c.Data[c.index(line, sample)+band] = v
}

// SetPixel copies the spectral signature v into (line, sample).
func (c *Cube) SetPixel(line, sample int, v []float32) {
	if len(v) != c.Bands {
		panic(fmt.Sprintf("cube: SetPixel with %d bands into a %d-band cube", len(v), c.Bands))
	}
	copy(c.Pixel(line, sample), v)
}

// Rows returns a view of lines [lo, hi) sharing storage with c. The view
// is a valid Cube whose line 0 is c's line lo. Spatial-domain partitioning
// hands each processor such a view (plus overlap borders for windowing
// algorithms).
func (c *Cube) Rows(lo, hi int) (*Cube, error) {
	if lo < 0 || hi > c.Lines || lo >= hi {
		return nil, fmt.Errorf("%w: rows [%d,%d) of %d lines", ErrBadShape, lo, hi, c.Lines)
	}
	start := c.index(lo, 0)
	end := c.index(hi-1, c.Samples-1) + c.Bands
	return &Cube{
		Lines:   hi - lo,
		Samples: c.Samples,
		Bands:   c.Bands,
		Data:    c.Data[start:end:end],
	}, nil
}

// Coord converts a flat pixel index into (line, sample) coordinates.
func (c *Cube) Coord(p int) (line, sample int) {
	return p / c.Samples, p % c.Samples
}

// FlatIndex converts (line, sample) into a flat pixel index.
func (c *Cube) FlatIndex(line, sample int) int { return line*c.Samples + sample }

// Brightness returns the squared Euclidean norm F(x,y)^T F(x,y) of the
// pixel at flat index p — the score ATDCA maximizes to find the brightest
// pixel (step 2 of Algorithm 2).
func (c *Cube) Brightness(p int) float64 {
	v := c.PixelAt(p)
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return s
}

// Stats summarizes the sample distribution of a cube.
type Stats struct {
	Min, Max, Mean, Std float64
}

// ComputeStats scans the cube once and returns summary statistics.
func (c *Cube) ComputeStats() Stats {
	if len(c.Data) == 0 {
		return Stats{}
	}
	min, max := math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for _, v := range c.Data {
		f := float64(v)
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
		sum += f
		sumSq += f * f
	}
	n := float64(len(c.Data))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Stats{Min: min, Max: max, Mean: mean, Std: math.Sqrt(variance)}
}

// BandImage extracts one spectral band as a Lines*Samples row-major image,
// useful for writing quick-look products.
func (c *Cube) BandImage(band int) ([]float32, error) {
	if band < 0 || band >= c.Bands {
		return nil, fmt.Errorf("%w: band %d of %d", ErrBadShape, band, c.Bands)
	}
	out := make([]float32, c.NumPixels())
	for p := range out {
		out[p] = c.Data[p*c.Bands+band]
	}
	return out, nil
}
