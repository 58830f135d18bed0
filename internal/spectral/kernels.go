package spectral

import (
	"math"

	"repro/internal/vec"
)

// This file holds the blocked forms of SAD used by the hot scans: pixel
// labelling, unique-set construction and candidate deduplication (the
// morphological distance map's pair dots are package vec's Dot4 and
// DotPairs). They return bit-for-bit what a loop over
// SAD returns, because every output keeps its own accumulator and its
// own left-to-right band order (DESIGN.md "Kernel exactness"); speed
// comes from running four outputs at once (a Set's scans sixteen, in
// vector lanes: see package vec), from widening each operand to
// float64 and taking its squared norm once per scan rather than once per
// dot product, and from deciding comparisons on the cosine when the
// arccosine cannot change the outcome.

// SqNorm returns the squared Euclidean norm of v, accumulated band by
// band exactly as SAD accumulates its norms.
func SqNorm(v []float32) float64 { return Dot(v, v) }

// Dot returns the dot product of a and b, accumulated band by band
// exactly as SAD accumulates it. With the norms cached it is a third of
// SAD's arithmetic.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("spectral: Dot length mismatch")
	}
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// cosSlack is how far a cosine must sit from a decision boundary before
// the decision is taken without the arccosine. |acos'| >= 1 on [-1, 1],
// so cosines 1e-12 apart have angles at least 1e-12 apart, four orders
// of magnitude beyond the rounding error of cos, the division and
// math.Acos combined.
const cosSlack = 1e-12

// A Limit is an angle threshold prepared for many comparisons: it keeps
// the cosine of the angle so that a scan can settle most comparisons
// without an arccosine.
type Limit struct {
	rad float64
	cos float64 // cos(rad); -Inf when every angle passes, +Inf when none can
}

// NoLimit passes every angle.
var NoLimit = NewLimit(math.Inf(1))

// NewLimit prepares the threshold rad (radians).
func NewLimit(rad float64) Limit {
	switch {
	case rad >= math.Pi:
		return Limit{rad: rad, cos: math.Inf(-1)}
	case rad < 0: // no angle is negative
		return Limit{rad: rad, cos: math.Inf(1)}
	}
	// A NaN rad has a NaN cosine, which disables every shortcut below;
	// the exact comparison then admits nothing.
	return Limit{rad: rad, cos: math.Cos(rad)}
}

// Holds reports Angle(dot, na, nb) <= the limit, for the dot product and
// squared norms of one pair of vectors a and b — SAD(a, b) <= limit —
// taking the arccosine only when the cosine is within cosSlack of the
// limit's. A NaN cosine (zero norm, NaN or Inf sample) fails both
// shortcuts and falls through to Angle's conventions.
func (l Limit) Holds(dot, na, nb float64) bool {
	c := dot / math.Sqrt(na*nb)
	if c > l.cos+cosSlack {
		return true
	}
	if c < l.cos-cosSlack {
		return false
	}
	return Angle(dot, na, nb) <= l.rad
}

// A Pixel is a vector widened once to float64, with its squared norm:
// what a scan that compares one vector with many needs of it. Widening
// float32 to float64 is exact, so every product formed from the widened
// samples is the product SAD forms, and Norm is SqNorm's bits (the same
// products added in the same order).
type Pixel struct {
	V    []float64
	Norm float64
}

// Load widens v into p, reusing p's storage when it has the capacity, and
// returns p. A scan loads every vector into the same Pixel and allocates
// nothing per vector.
func (p *Pixel) Load(v []float32) *Pixel {
	if cap(p.V) < len(v) {
		p.V = make([]float64, len(v))
	}
	p.V = p.V[:len(v)]
	var norm float64
	for i, s := range v {
		w := float64(s)
		p.V[i] = w
		norm += w * w
	}
	p.Norm = norm
	return p
}

// A Set is a list of signatures, each widened once with its squared norm
// cached, so a scan of many pixels against it never recomputes a
// per-signature invariant. The set keeps its own float64 copy of every
// signature, packed in a vec.Panel: one that changes after NewSet or Add
// is not seen, so a signature must not change while the set stands for
// it.
type Set struct {
	sigs  vec.Panel
	norms []float64
	wide  Pixel // Add's scratch
}

// NewSet builds a set over sigs.
func NewSet(sigs [][]float32) *Set {
	s := &Set{norms: make([]float64, 0, len(sigs))}
	for _, sig := range sigs {
		s.Add(sig)
	}
	return s
}

// Add appends a signature.
func (s *Set) Add(sig []float32) {
	s.wide.Load(sig)
	s.sigs.Add(s.wide.V)
	s.norms = append(s.norms, s.wide.Norm)
}

// Len returns the number of signatures.
func (s *Set) Len() int { return len(s.norms) }

// setPass is how many signatures a scan takes per call of vec.Panel.Dots.
const setPass = 16

// Nearest returns the index of the signature with the smallest SAD to
// the loaded pixel x among those strictly below limit (the lowest index
// on ties) and that distance, or (-1, limit's angle) when there is none —
// what the loop
//
//	best, bestD := -1, limit
//	for i, s := range set { if d := SAD(pixel, s); d < bestD { best, bestD = i, d } }
//
// returns. A signature whose cosine lies more than cosSlack below the
// best so far cannot win and is passed over without its arccosine.
func (s *Set) Nearest(x *Pixel, limit Limit) (int, float64) {
	best, bestD := -1, limit.rad
	bound := limit.cos // no greater than cos(bestD), up to rounding
	var buf [setPass]float64
	for i := 0; i < len(s.norms); i += setPass {
		dots := buf[:min(setPass, len(s.norms)-i)]
		s.sigs.Dots(x.V, i, dots)
		for k, dot := range dots {
			ns := s.norms[i+k]
			c := dot / math.Sqrt(x.Norm*ns)
			if c < bound-cosSlack {
				continue
			}
			if d := Angle(dot, x.Norm, ns); d < bestD {
				best, bestD = i+k, d
				if c > bound {
					bound = min(c, 1)
				}
			}
		}
	}
	return best, bestD
}

// FirstWithin returns the lowest index whose signature has
// SAD(pixel, signature) <= limit for the loaded pixel x, or -1.
func (s *Set) FirstWithin(x *Pixel, limit Limit) int {
	var buf [setPass]float64
	for i := 0; i < len(s.norms); i += setPass {
		dots := buf[:min(setPass, len(s.norms)-i)]
		s.sigs.Dots(x.V, i, dots)
		for k, dot := range dots {
			if limit.Holds(dot, x.Norm, s.norms[i+k]) {
				return i + k
			}
		}
	}
	return -1
}
