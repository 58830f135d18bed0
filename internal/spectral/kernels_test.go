package spectral

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// The scans in this file are checked against loops over the scalar SAD,
// with == on the index and on the bits of the distance: the blocked
// kernels promise the same answer, not a close one.

// Dots4 returns the dot products of x with a, b, c and d, all already
// widened, each accumulated band by band exactly as SAD accumulates it:
// vec.Dot4 without the norm and without converting its operands. It is the
// scalar form of the four-row pass Set and MORPH's support filter made
// before vec.Panel.
func Dots4(x, a, b, c, d []float64) (da, db, dc, dd float64) {
	n := len(x)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic("spectral: Dots4 length mismatch")
	}
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	for i, w := range x {
		da += w * a[i]
		db += w * b[i]
		dc += w * c[i]
		dd += w * d[i]
	}
	return
}

// refNearest is the scan Set.Nearest replaces.
func refNearest(pixel []float32, set [][]float32, limit float64) (int, float64) {
	best, bestD := -1, limit
	for i, s := range set {
		if d := SAD(pixel, s); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// refFirstWithin is the scan Set.FirstWithin replaces.
func refFirstWithin(pixel []float32, set [][]float32, limit float64) int {
	for i, s := range set {
		if SAD(pixel, s) <= limit {
			return i
		}
	}
	return -1
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// testLimits covers the thresholds the scans use (PCT's and MORPH's
// theta, half and one-and-a-half of it), the boundaries of the angle's
// range, and the values no angle can satisfy.
var testLimits = []float64{
	math.Inf(1), 0.04, 0.06, 0.03, 0.09, 0.5, 1.2, math.Pi / 2, 3, math.Pi, 4,
	0, 1e-9, -0.1, math.Inf(-1), math.NaN(),
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()
	}
	return v
}

// hardSet builds a set of the given size around pixel that exercises the
// cases where a blocked scan could go wrong: zero vectors, NaN and ±Inf
// samples, exact duplicates, exact ties between different vectors
// (power-of-two multiples have bit-identical cosines) and near-ties (one
// small component moved by one float32 ulp moves the cosine by about one
// float64 ulp).
func hardSet(rng *rand.Rand, pixel []float32, size int) [][]float32 {
	n := len(pixel)
	set := make([][]float32, size)
	for i := range set {
		var v []float32
		switch kind := rng.Intn(10); {
		case kind == 0:
			v = make([]float32, n) // zero vector
		case kind == 1:
			v = randVec(rng, n)
			v[rng.Intn(n)] = [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
		case kind == 2 && i > 0:
			v = append([]float32(nil), set[rng.Intn(i)]...) // exact duplicate
		case kind == 3 && i > 0:
			v = append([]float32(nil), set[rng.Intn(i)]...) // exact tie
			for j := range v {
				v[j] *= 4
			}
		case kind == 4 && i > 0:
			base, j := set[rng.Intn(i)], rng.Intn(n) // near-tie
			base[j] *= 1e-4
			v = append([]float32(nil), base...)
			v[j] = math.Nextafter32(v[j], 1)
		case kind == 5:
			// Close to the pixel: small angles, where the limits bite.
			v = make([]float32, n)
			for j := range v {
				v[j] = pixel[j] * (1 + 0.05*rng.Float32())
			}
		case kind == 6:
			v = append([]float32(nil), pixel...) // the pixel itself
		default:
			v = randVec(rng, n)
		}
		set[i] = v
	}
	return set
}

func TestDotKernelsAccumulateAsSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for bands := 1; bands <= 70; bands++ {
		x := randVec(rng, bands)
		sigs := hardSet(rng, x, 4)
		nx, d4 := vec.Dot4(x, sigs[0], sigs[1], sigs[2], sigs[3])
		if !sameBits(nx, SqNorm(x)) {
			t.Fatalf("bands %d: Dot4 norm %v, SqNorm %v", bands, nx, SqNorm(x))
		}
		// The widened forms: a Pixel's norm and Dots4 over Pixels.
		var px Pixel
		var ws [4]Pixel
		for k := range ws {
			ws[k].Load(sigs[k])
		}
		w0, w1, w2, w3 := Dots4(px.Load(x).V, ws[0].V, ws[1].V, ws[2].V, ws[3].V)
		// A Set's scans take the same dot products from a vec.Panel.
		var panel vec.Panel
		for k := range ws {
			panel.Add(ws[k].V)
		}
		var pd [4]float64
		panel.Dots(px.V, 0, pd[:])
		if !sameBits(px.Norm, nx) {
			t.Fatalf("bands %d: Pixel norm %v, Dot4 norm %v", bands, px.Norm, nx)
		}
		for k, d := range d4 {
			if got := Dot(x, sigs[k]); !sameBits(d, got) && !(math.IsNaN(d) && math.IsNaN(got)) {
				t.Fatalf("bands %d slot %d: Dot4 %v, Dot %v", bands, k, d, got)
			}
			if w := [4]float64{w0, w1, w2, w3}[k]; !sameBits(w, d) && !(math.IsNaN(w) && math.IsNaN(d)) {
				t.Fatalf("bands %d slot %d: Dots4 %v, Dot4 %v", bands, k, w, d)
			}
			if !sameBits(pd[k], d) && !(math.IsNaN(pd[k]) && math.IsNaN(d)) {
				t.Fatalf("bands %d slot %d: Panel.Dots %v, Dot4 %v", bands, k, pd[k], d)
			}
			if !sameBits(ws[k].Norm, SqNorm(sigs[k])) && !math.IsNaN(ws[k].Norm) {
				t.Fatalf("bands %d slot %d: Pixel norm %v, SqNorm %v", bands, k, ws[k].Norm, SqNorm(sigs[k]))
			}
			want := SAD(x, sigs[k])
			if got := Angle(d, nx, SqNorm(sigs[k])); !sameBits(got, want) {
				t.Fatalf("bands %d slot %d: Angle over kernels %v, SAD %v", bands, k, got, want)
			}
			// Symmetry the distance map relies on: the pair evaluated from
			// the other end is the same bits.
			if got := SAD(sigs[k], x); !sameBits(got, want) {
				t.Fatalf("bands %d slot %d: SAD(b,a) %v, SAD(a,b) %v", bands, k, got, want)
			}
		}
		// DotPairs: four unrelated pairs, zero, NaN and ±Inf pixels among
		// them and one vector against itself, each lane against Dot.
		a, b := [4][]float32(hardSet(rng, x, 4)), [4][]float32(hardSet(rng, randVec(rng, bands), 4))
		b[3] = a[3]
		for k, d := range vec.DotPairs(&a, &b) {
			if want := Dot(a[k], b[k]); !sameBits(d, want) && !(math.IsNaN(d) && math.IsNaN(want)) {
				t.Fatalf("bands %d slot %d: DotPairs %v, Dot %v", bands, k, d, want)
			}
		}
	}
}

func TestDot4LengthMismatchPanics(t *testing.T) {
	v := []float32{1, 2, 3}
	for _, kernel := range []struct {
		name  string
		slots int
		call  func(ops [8][]float32)
	}{
		{"Dot4", 4, func(o [8][]float32) { vec.Dot4(v, o[0], o[1], o[2], o[3]) }},
		{"DotPairs", 8, func(o [8][]float32) { vec.DotPairs((*[4][]float32)(o[:4]), (*[4][]float32)(o[4:])) }},
	} {
		for slot := 0; slot < kernel.slots; slot++ {
			ops := [8][]float32{v, v, v, v, v, v, v, v}
			ops[slot] = []float32{1, 2}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: short operand in slot %d did not panic", kernel.name, slot)
					}
				}()
				kernel.call(ops)
			}()
		}
	}
}

func TestNearestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nearTies := 0
	for bands := 1; bands <= 70; bands++ {
		for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17, 33, 49} {
			pixel := randVec(rng, bands)
			switch rng.Intn(12) {
			case 0:
				pixel = make([]float32, bands)
			case 1:
				pixel[rng.Intn(bands)] = float32(math.NaN())
			case 2:
				pixel[rng.Intn(bands)] = float32(math.Inf(1))
			}
			sigs := hardSet(rng, pixel, size)
			set := NewSet(nil)
			for _, s := range sigs {
				set.Add(s)
			}
			for i := range sigs {
				for j := 0; j < i; j++ {
					di, dj := SAD(pixel, sigs[i]), SAD(pixel, sigs[j])
					if di != dj && math.Abs(math.Cos(di)-math.Cos(dj)) < cosSlack {
						nearTies++
					}
				}
			}
			for _, lim := range testLimits {
				wantI, wantD := refNearest(pixel, sigs, lim)
				gotI, gotD := set.Nearest(new(Pixel).Load(pixel), NewLimit(lim))
				if gotI != wantI || !sameBits(gotD, wantD) {
					t.Fatalf("bands %d size %d limit %v: Nearest (%d, %v), reference (%d, %v)\npixel %v\nset %v",
						bands, size, lim, gotI, gotD, wantI, wantD, pixel, sigs)
				}
				if got, want := set.FirstWithin(new(Pixel).Load(pixel), NewLimit(lim)), refFirstWithin(pixel, sigs, lim); got != want {
					t.Fatalf("bands %d size %d limit %v: FirstWithin %d, reference %d\npixel %v\nset %v",
						bands, size, lim, got, want, pixel, sigs)
				}
			}
		}
	}
	// The slack path — distinct distances whose cosines are closer than
	// cosSlack, settled by the arccosine — must actually have been taken.
	if nearTies == 0 {
		t.Error("no near-tie was generated; the test does not cover the cosine slack")
	}
}

func TestNewSetMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pixel := randVec(rng, 9)
	sigs := hardSet(rng, pixel, 7)
	a := NewSet(sigs)
	if a.Len() != len(sigs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(sigs))
	}
	gi, gd := a.Nearest(new(Pixel).Load(pixel), NoLimit)
	wi, wd := refNearest(pixel, sigs, math.Inf(1))
	if gi != wi || !sameBits(gd, wd) {
		t.Fatalf("NewSet scan (%d, %v), reference (%d, %v)", gi, gd, wi, wd)
	}
}

func TestLimitHoldsMatchesAngle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20000; trial++ {
		na, nb := rng.Float64()*4, rng.Float64()*4
		dot := (2*rng.Float64() - 1) * math.Sqrt(na*nb)
		switch rng.Intn(20) {
		case 0:
			na, dot = 0, 0 // a zero vector has a zero dot product
		case 1:
			dot = math.NaN()
		case 2:
			dot = math.Sqrt(na * nb) // cosine exactly at the clamp
		case 3:
			na, dot = math.Inf(1), math.Inf(1)
		}
		lim := testLimits[rng.Intn(len(testLimits))]
		if rng.Intn(2) == 0 {
			// A limit within rounding of the angle itself.
			lim = Angle(dot, na, nb) + float64(rng.Intn(5)-2)*1e-16
		}
		if got, want := NewLimit(lim).Holds(dot, na, nb), Angle(dot, na, nb) <= lim; got != want {
			t.Fatalf("Holds(%v, %v, %v) under %v = %v, Angle %v", dot, na, nb, lim, got, Angle(dot, na, nb))
		}
	}
}

// fuzzCase decodes a fuzz input into a pixel and a set: bands gives
// 1-300 bands, past any fixed-size buffer a kernel might keep; the first
// byte of data is the set size (0-11), the rest float32 bit patterns — so
// NaN, ±Inf, zero and denormal samples all occur — cut into bands-long
// vectors.
func fuzzCase(data []byte, bands uint16) (pixel []float32, set [][]float32) {
	n := int(bands%300) + 1
	size := 0
	if len(data) > 0 {
		size, data = int(data[0]%12), data[1:]
	}
	next := func() []float32 {
		v := make([]float32, n)
		for i := range v {
			if len(data) >= 4 {
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data))
				data = data[4:]
			}
		}
		return v
	}
	pixel = next()
	for i := 0; i < size; i++ {
		set = append(set, next())
	}
	return pixel, set
}

// FuzzNearestMatchesReference checks both scans of a set against the
// scalar loops. A grown set is built by NewSet over the first half of the
// signatures and Add for the rest, the way the unique-set and candidate
// scans grow theirs; the pixel goes through one Pixel reused from a
// different-length vector, as a scan reuses it.
func FuzzNearestMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 128, 64, 0, 0, 0, 65}, uint16(1), 0.04, false)
	f.Fuzz(func(t *testing.T, data []byte, bands uint16, limit float64, grown bool) {
		pixel, sigs := fuzzCase(data, bands)
		set := NewSet(sigs)
		if grown {
			set = NewSet(sigs[:len(sigs)/2])
			for _, sig := range sigs[len(sigs)/2:] {
				set.Add(sig)
			}
		}
		px := new(Pixel).Load(make([]float32, len(pixel)+3))
		px.Load(pixel)
		wantI, wantD := refNearest(pixel, sigs, limit)
		gotI, gotD := set.Nearest(px, NewLimit(limit))
		if gotI != wantI || !sameBits(gotD, wantD) {
			t.Fatalf("Nearest (%d, %v), reference (%d, %v)\npixel %v\nset %v\nlimit %v", gotI, gotD, wantI, wantD, pixel, sigs, limit)
		}
		if got, want := set.FirstWithin(px, NewLimit(limit)), refFirstWithin(pixel, sigs, limit); got != want {
			t.Fatalf("FirstWithin %d, reference %d\npixel %v\nset %v\nlimit %v", got, want, pixel, sigs, limit)
		}
	})
}

// A scan loads every pixel into one Pixel: a query allocates nothing,
// whatever the band count.
func TestNearestAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, bands := range []int{8, 64, 300} {
		pixel := randVec(rng, bands)
		set := NewSet(hardSet(rng, pixel, 9))
		var px Pixel
		allocs := testing.AllocsPerRun(100, func() {
			set.Nearest(px.Load(pixel), NewLimit(0.06))
			set.FirstWithin(px.Load(pixel), NewLimit(0.06))
		})
		if allocs != 0 {
			t.Fatalf("%d bands: %v allocations per query, want 0", bands, allocs)
		}
	}
}

func BenchmarkNearest8(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	pixel := randVec(rng, 64)
	sigs := make([][]float32, 8)
	for i := range sigs {
		sigs[i] = randVec(rng, 64)
	}
	b.Run("blocked", func(b *testing.B) {
		set := NewSet(sigs)
		var px Pixel
		for i := 0; i < b.N; i++ {
			set.Nearest(px.Load(pixel), NoLimit)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refNearest(pixel, sigs, math.Inf(1))
		}
	})
}
