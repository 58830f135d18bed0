// Package spectral provides spectral similarity metrics and a synthetic
// signature library for hyperspectral analysis.
//
// The spectral angle distance (SAD, Eq. 1 of the paper) is the workhorse
// similarity metric: the angle between two pixel vectors, invariant to
// illumination scaling, with 0 meaning spectrally identical.
package spectral

import "repro/internal/vec"

// SAD returns the spectral angle distance between two pixel vectors:
// arccos( a.b / (|a||b|) ), in radians in [0, pi]. By convention the
// distance involving an all-zero vector is pi/2 (maximally dissimilar
// among non-negative spectra).
func SAD(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("spectral: SAD length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	return Angle(dot, na, nb)
}

// SADf64 is SAD for float64 vectors.
func SADf64(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("spectral: SAD length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return Angle(dot, na, nb)
}

// Angle returns the spectral angle of two vectors from their dot product
// and squared norms: SAD(a, b) is Angle(a.b, |a|^2, |b|^2). It is
// vec.Angle, the one place the zero-vector, NaN and clamping conventions
// live, for SAD, for the blocked kernels that cache the norms and for
// the lanes of vec.Angles.
func Angle(dot, na, nb float64) float64 {
	// A NaN cosine — a NaN sample, or inf*0 in the dot product — gives π:
	// a NaN distance would make every comparison against it false,
	// silently poisoning argmin scans like Set.Nearest, so the pixel is
	// maximally dissimilar instead. A zero norm gives π/2. The cosine is
	// clamped to [-1, 1] against floating-point drift before the
	// arccosine, which is math.Acos's operations in math.Acos's order.
	return vec.Angle(dot, na, nb)
}

// Finite reports whether every sample of v is finite. Corrupt pixels —
// NaN or Inf samples from a dropped calibration frame or a dead detector
// element — must be excluded from scene statistics and endmember
// candidacy; SAD alone only guarantees they compare as maximally
// dissimilar.
func Finite(v []float32) bool {
	for _, x := range v {
		// x-x is 0 for finite x and NaN for NaN or ±Inf.
		if x-x != 0 {
			return false
		}
	}
	return true
}

// FlopsSAD is the cost of one SAD evaluation on n-band vectors.
func FlopsSAD(n int) float64 { return 6*float64(n) + 10 }
