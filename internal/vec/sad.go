package vec

import "math"

// This file holds the lanes of MEI's spectral angles (Eq. 1 over
// neighbour pairs): the float32 pair dots and the arccosine. A pair's dot
// product is one float64 lane that adds its band products in band order,
// over blocks of four bands whose 4x4 products are transposed in
// registers; widened float32 products are exact, so only those adds
// round. The arccosine is math.Acos's own operations in its own order,
// its branches taken as lane blends.

// Dot4 returns the squared norm of x and its dot products with a, b, c
// and d, each summed band by band as the loop
//
//	for i := range x { s += float64(x[i]) * float64(a[i]) }
//
// sums it. The five vectors must have x's length.
func Dot4(x, a, b, c, d []float32) (nx float64, dots [4]float64) {
	n := len(x)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic("vec: Dot4 length mismatch")
	}
	if !vector || n == 0 {
		return dot4Go(x, a, b, c, d)
	}
	var out [5]float64
	dot4AVX2(&x[0], &a[0], &b[0], &c[0], &d[0], n, &out)
	return out[0], [4]float64(out[1:])
}

// DotPairs returns the dot products a[i]·b[i] of four pairs, each summed
// band by band as Dot4 sums it. The eight vectors must have one length.
func DotPairs(a, b *[4][]float32) [4]float64 {
	n := len(a[0])
	for i := range a {
		if len(a[i]) != n || len(b[i]) != n {
			panic("vec: DotPairs length mismatch")
		}
	}
	if !vector || n == 0 {
		return dotPairsGo(a, b)
	}
	var out [4]float64
	dotPairsAVX2(&a[0][0], &a[1][0], &a[2][0], &a[3][0], &b[0][0], &b[1][0], &b[2][0], &b[3][0], n, &out)
	return out
}

// Angles sets out[i] = Angle(dot[i], na[i], nb[i]) for every i, four
// lanes at a time; out may be dot. The four slices must have one length.
func Angles(out, dot, na, nb []float64) {
	n := len(out)
	if len(dot) != n || len(na) != n || len(nb) != n {
		panic("vec: Angles length mismatch")
	}
	if !vector {
		for i := range out {
			out[i] = Angle(dot[i], na[i], nb[i])
		}
		return
	}
	whole := n &^ 3
	if whole > 0 {
		anglesAVX2(&out[0], &dot[0], &na[0], &nb[0], whole/4)
	}
	if whole < n {
		// The last one to three take a group of their own; its spare
		// lanes have zero norms.
		var o, d, a, b [4]float64
		copy(d[:], dot[whole:])
		copy(a[:], na[whole:])
		copy(b[:], nb[whole:])
		anglesAVX2(&o[0], &d[0], &a[0], &b[0], 1)
		copy(out[whole:], o[:])
	}
}

// Angle returns the spectral angle of two vectors from their dot product
// and squared norms, arccos(dot / sqrt(na*nb)): π/2 when a norm is zero,
// π when the cosine is NaN, and the cosine clamped to [-1, 1] before the
// arccosine (spectral.Angle documents why).
func Angle(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return math.Pi / 2
	}
	c := dot / math.Sqrt(na*nb)
	if math.IsNaN(c) {
		return math.Pi
	}
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return acos(c)
}

// acos is math.Acos as the Go library computes it where no FMA is fused
// (amd64, 386): π/2 - asin(x), asin through satan and xatan, with the
// same operations in the same order. Each float64() conversion rounds a
// product before the add that follows, which forbids fusing the two
// (arm64 would otherwise), so acos has the same bits on every platform.
func acos(x float64) float64 {
	return math.Pi/2 - asin(x)
}

func asin(x float64) float64 {
	if x == 0 {
		return x
	}
	sign := false
	if x < 0 {
		x, sign = -x, true
	}
	if x > 1 {
		return math.NaN()
	}
	temp := math.Sqrt(1 - float64(x*x))
	if x > 0.7 {
		temp = math.Pi/2 - satan(temp/x)
	} else {
		temp = satan(x / temp)
	}
	if sign {
		temp = -temp
	}
	return temp
}

// satan reduces its argument to [0, 0.66] for xatan. It is math's satan
// on the arguments asin passes, which never exceed sqrt(0.51)/0.7 <
// 1.03: x/sqrt(1-x*x) for x <= 0.7, sqrt(1-x*x)/x above. math's third
// branch, π/2 - xatan(1/x) + morebits for x > tan(3π/8), never runs there
// and is left out.
func satan(x float64) float64 {
	if x <= 0.66 {
		return xatan(x)
	}
	const morebits = 6.123233995736765886130e-17 // π/2 = PIO2 + morebits
	return math.Pi/4 + xatan((x-1)/(x+1)) + 0.5*morebits
}

// xatan evaluates a rational series on [0, 0.66].
func xatan(x float64) float64 {
	const (
		P0 = -8.750608600031904122785e-01
		P1 = -1.615753718733365076637e+01
		P2 = -7.500855792314704667340e+01
		P3 = -1.228866684490136173410e+02
		P4 = -6.485021904942025371773e+01
		Q0 = +2.485846490142306297962e+01
		Q1 = +1.650270098316988542046e+02
		Q2 = +4.328810604912902668951e+02
		Q3 = +4.853903996359136964868e+02
		Q4 = +1.945506571482613964425e+02
	)
	// Horner's rule as math's xatan writes it, every product rounded by
	// float64() before its add. One expression per polynomial keeps xatan
	// small enough to inline into satan, as math's is.
	z := float64(x * x)
	p := float64((float64((float64((float64(P0*z)+P1)*z)+P2)*z)+P3)*z) + P4
	q := float64((float64((float64((float64((z+Q0)*z)+Q1)*z)+Q2)*z)+Q3)*z) + Q4
	z = z * p / q
	return float64(x*z) + x
}

// dot4Go is the Go form of Dot4, on checked lengths. Products of widened
// float32s are exact, so a fused multiply-add would round as the add
// alone does.
func dot4Go(x, a, b, c, d []float32) (nx float64, dots [4]float64) {
	n := len(x)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	var da, db, dc, dd float64
	for i, s := range x {
		w := float64(s)
		nx += w * w
		da += w * float64(a[i])
		db += w * float64(b[i])
		dc += w * float64(c[i])
		dd += w * float64(d[i])
	}
	return nx, [4]float64{da, db, dc, dd}
}

// dotPairsGo is the Go form of DotPairs, on checked lengths.
func dotPairsGo(a, b *[4][]float32) [4]float64 {
	n := len(a[0])
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	var d0, d1, d2, d3 float64
	for i := range a0 {
		d0 += float64(a0[i]) * float64(b0[i])
		d1 += float64(a1[i]) * float64(b1[i])
		d2 += float64(a2[i]) * float64(b2[i])
		d3 += float64(a3[i]) * float64(b3[i])
	}
	return [4]float64{d0, d1, d2, d3}
}
