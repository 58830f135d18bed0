package spectral

import (
	"fmt"
	"math"
)

// This file synthesizes AVIRIS-like laboratory signatures. The real study
// used USGS spectral library measurements of World Trade Center dust and
// debris (see DESIGN.md for the substitution rationale); here we generate
// smooth reflectance curves with the same qualitative structure — slopes,
// absorption features, and, for the thermal hot spots, blackbody-like
// emission rising into the short-wave infrared.

// AVIRIS spectral range in micrometers.
const (
	WavelengthMin = 0.4
	WavelengthMax = 2.5
)

// Wavelengths returns n band-center wavelengths evenly covering the
// AVIRIS range.
func Wavelengths(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = (WavelengthMin + WavelengthMax) / 2
		return w
	}
	for i := range w {
		w[i] = WavelengthMin + (WavelengthMax-WavelengthMin)*float64(i)/float64(n-1)
	}
	return w
}

// Feature is one Gaussian spectral feature: positive amplitude for a
// reflectance peak, negative for an absorption band.
type Feature struct {
	Center    float64 // micrometers
	Width     float64 // micrometers (standard deviation)
	Amplitude float64 // reflectance units
}

// Synthesize builds an n-band signature from a reflectance baseline, a
// linear slope over the full range, and a set of Gaussian features,
// clamped to non-negative reflectance.
func Synthesize(n int, baseline, slope float64, features []Feature) []float32 {
	wl := Wavelengths(n)
	out := make([]float32, n)
	span := WavelengthMax - WavelengthMin
	for i, w := range wl {
		v := baseline + slope*(w-WavelengthMin)/span
		for _, f := range features {
			d := (w - f.Center) / f.Width
			v += f.Amplitude * math.Exp(-0.5*d*d)
		}
		if v < 0 {
			v = 0
		}
		out[i] = float32(v)
	}
	return out
}

// Planck evaluates the blackbody spectral radiance (arbitrary units,
// normalized constants) at wavelength wl micrometers for temperature
// kelvin.
func Planck(wlMicron, kelvin float64) float64 {
	// c2 = h*c/k in micron-kelvin.
	const c2 = 14387.8
	wl5 := math.Pow(wlMicron, 5)
	return 1 / (wl5 * (math.Exp(c2/(wlMicron*kelvin)) - 1))
}

// FahrenheitToKelvin converts the paper's hot-spot temperatures.
func FahrenheitToKelvin(f float64) float64 { return (f-32)*5/9 + 273.15 }

// ThermalSignature builds an n-band signature of a thermal emitter at the
// given temperature in Fahrenheit (the paper's hot spots span 700F-1300F),
// normalized to the given peak value within the AVIRIS range. Hotter
// sources produce both stronger and steeper short-wave infrared response.
func ThermalSignature(n int, fahrenheit, peak float64) []float32 {
	k := FahrenheitToKelvin(fahrenheit)
	wl := Wavelengths(n)
	raw := make([]float64, n)
	var max float64
	for i, w := range wl {
		raw[i] = Planck(w, k)
		if raw[i] > max {
			max = raw[i]
		}
	}
	out := make([]float32, n)
	if max == 0 {
		return out
	}
	for i := range out {
		out[i] = float32(peak * raw[i] / max)
	}
	return out
}

// Library is a named collection of signatures with a common band count.
type Library struct {
	Bands int
	Names []string
	Sigs  [][]float32
}

// NewLibrary creates an empty library for n-band signatures.
func NewLibrary(n int) *Library { return &Library{Bands: n} }

// Add appends a named signature, validating its band count.
func (l *Library) Add(name string, sig []float32) error {
	if len(sig) != l.Bands {
		return fmt.Errorf("spectral: signature %q has %d bands, library wants %d", name, len(sig), l.Bands)
	}
	l.Names = append(l.Names, name)
	l.Sigs = append(l.Sigs, sig)
	return nil
}

// Len returns the number of signatures.
func (l *Library) Len() int { return len(l.Sigs) }

// Get returns the signature with the given name.
func (l *Library) Get(name string) ([]float32, bool) {
	for i, n := range l.Names {
		if n == name {
			return l.Sigs[i], true
		}
	}
	return nil, false
}

// Mix returns the linear mixture sum_i abundances[i]*sigs[i]; slices must
// be equal length and signatures of common band count.
func Mix(sigs [][]float32, abundances []float64) []float32 {
	if len(sigs) != len(abundances) {
		panic("spectral: Mix length mismatch")
	}
	if len(sigs) == 0 {
		panic("spectral: Mix of nothing")
	}
	out := make([]float32, len(sigs[0]))
	for k, s := range sigs {
		if len(s) != len(out) {
			panic("spectral: Mix with inconsistent band counts")
		}
		a := float32(abundances[k])
		for i, v := range s {
			out[i] += a * v
		}
	}
	return out
}
