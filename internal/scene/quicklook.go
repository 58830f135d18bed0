package scene

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cube"
	"repro/internal/spectral"
)

// This file renders false-color quicklooks like Figure 1 of the paper:
// the left panel mapped the 1682, 1107 and 655 nm AVIRIS channels to red,
// green and blue; the right panel marked the thermal hot spots.

// Figure1Wavelengths are the channel centers (micrometers) of the paper's
// false-color composite.
var Figure1Wavelengths = [3]float64{1.682, 1.107, 0.655}

// nearestBand returns the band whose center wavelength is closest to the
// requested one.
func nearestBand(bands int, micron float64) int {
	wl := spectral.Wavelengths(bands)
	best, bestD := 0, math.Inf(1)
	for i, w := range wl {
		if d := math.Abs(w - micron); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// WriteQuicklook renders the cube as a binary PPM (P6) false-color
// composite using the Figure 1 channel mapping, contrast-stretched to the
// 2nd-98th percentile per channel.
func WriteQuicklook(w io.Writer, c *cube.Cube) error {
	bandsRGB := [3]int{
		nearestBand(c.Bands, Figure1Wavelengths[0]),
		nearestBand(c.Bands, Figure1Wavelengths[1]),
		nearestBand(c.Bands, Figure1Wavelengths[2]),
	}
	// Percentile stretch per channel.
	var lo, hi [3]float32
	for ch, b := range bandsRGB {
		img, err := c.BandImage(b)
		if err != nil {
			return err
		}
		lo[ch], hi[ch] = percentiles(img, 0.02, 0.98)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", c.Samples, c.Lines); err != nil {
		return err
	}
	pix := make([]byte, 3)
	for l := 0; l < c.Lines; l++ {
		for s := 0; s < c.Samples; s++ {
			for ch, b := range bandsRGB {
				v := c.At(l, s, b)
				pix[ch] = stretch(v, lo[ch], hi[ch])
			}
			if _, err := bw.Write(pix); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveQuicklook writes the false-color composite to a PPM file.
func SaveQuicklook(path string, c *cube.Cube) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scene: %w", err)
	}
	if err := WriteQuicklook(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentiles returns the approximate p-lo and p-hi percentile values of
// img via a 1024-bin histogram.
func percentiles(img []float32, pLo, pHi float64) (float32, float32) {
	if len(img) == 0 {
		return 0, 1
	}
	min, max := img[0], img[0]
	for _, v := range img {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max <= min {
		return min, min + 1
	}
	const bins = 1024
	var hist [bins]int
	scale := float32(bins-1) / (max - min)
	for _, v := range img {
		hist[int((v-min)*scale)]++
	}
	loCount := int(pLo * float64(len(img)))
	hiCount := int(pHi * float64(len(img)))
	var lo, hi float32 = min, max
	acc := 0
	for b := 0; b < bins; b++ {
		acc += hist[b]
		if acc >= loCount {
			lo = min + float32(b)/scale
			break
		}
	}
	acc = 0
	for b := 0; b < bins; b++ {
		acc += hist[b]
		if acc >= hiCount {
			hi = min + float32(b)/scale
			break
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// stretch maps v into 0..255 within [lo, hi].
func stretch(v, lo, hi float32) byte {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return 255
	}
	return byte(255 * (v - lo) / (hi - lo))
}
