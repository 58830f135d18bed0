package cube

import (
	"fmt"

	"repro/internal/par"
)

// Interleave names a sample ordering of a hyperspectral data stream.
// AVIRIS products ship in all three; this package stores cubes BIP
// internally (the pixel vector contiguous) and converts on the way in and
// out.
type Interleave string

// The three standard orderings.
const (
	// BIP is band-interleaved-by-pixel: [line][sample][band].
	BIP Interleave = "bip"
	// BIL is band-interleaved-by-line: [line][band][sample].
	BIL Interleave = "bil"
	// BSQ is band-sequential: [band][line][sample].
	BSQ Interleave = "bsq"
)

// Valid reports whether the interleave is one of bip, bil, bsq.
func (il Interleave) Valid() bool { return il == BIP || il == BIL || il == BSQ }

// Samples returns the cube's samples in the given interleave order as a
// freshly allocated slice.
func (c *Cube) Samples3D(il Interleave) ([]float32, error) {
	switch il {
	case BIP:
		out := make([]float32, len(c.Data))
		copy(out, c.Data)
		return out, nil
	case BIL:
		// Every line owns a disjoint slice of the output, so the transpose
		// fans out over lines via par.
		out := make([]float32, len(c.Data))
		par.Lines(c.Lines, 1, func(_, lo, hi int) {
			for l := lo; l < hi; l++ {
				i := l * c.Bands * c.Samples
				for b := 0; b < c.Bands; b++ {
					for s := 0; s < c.Samples; s++ {
						out[i] = c.At(l, s, b)
						i++
					}
				}
			}
		})
		return out, nil
	case BSQ:
		// Every band owns a disjoint plane of the output.
		out := make([]float32, len(c.Data))
		par.Lines(c.Bands, 1, func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				i := b * c.Lines * c.Samples
				for l := 0; l < c.Lines; l++ {
					for s := 0; s < c.Samples; s++ {
						out[i] = c.At(l, s, b)
						i++
					}
				}
			}
		})
		return out, nil
	default:
		return nil, fmt.Errorf("cube: unknown interleave %q", il)
	}
}

// FromSamples3D builds a cube from a flat sample slice in the given
// interleave order.
func FromSamples3D(lines, samples, bands int, il Interleave, data []float32) (*Cube, error) {
	if !il.Valid() {
		return nil, fmt.Errorf("cube: unknown interleave %q", il)
	}
	c, err := New(lines, samples, bands)
	if err != nil {
		return nil, err
	}
	if len(data) != len(c.Data) {
		return nil, fmt.Errorf("%w: %d samples for %dx%dx%d", ErrBadShape, len(data), lines, samples, bands)
	}
	switch il {
	case BIP:
		copy(c.Data, data)
	case BIL:
		// Each line reads a disjoint slice of data and writes a disjoint
		// slice of the cube.
		par.Lines(lines, 1, func(_, lo, hi int) {
			for l := lo; l < hi; l++ {
				i := l * bands * samples
				for b := 0; b < bands; b++ {
					for s := 0; s < samples; s++ {
						c.Set(l, s, b, data[i])
						i++
					}
				}
			}
		})
	case BSQ:
		// Bands write interleaved cube elements but never the same one.
		par.Lines(bands, 1, func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				i := b * lines * samples
				for l := 0; l < lines; l++ {
					for s := 0; s < samples; s++ {
						c.Set(l, s, b, data[i])
						i++
					}
				}
			}
		})
	}
	return c, nil
}
