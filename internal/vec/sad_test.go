package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// cosineSeeds are the arccosine's hard inputs: ±1, ±0, NaN, ±Inf, |x| > 1,
// subnormals, runs of neighbouring values on both sides of each branch
// threshold — 0.7 in asin, and the cosines whose satan argument is 0.66
// (x/sqrt(1-x*x) below 0.7, sqrt(1-x*x)/x above) — and, for each
// multiply-add of the arccosine (1 - x*x, x*x + Q0, the eight steps of
// xatan's two polynomials, x*z + x), two cosines whose arccosine changes
// when that one multiply-add is fused (found by a random search). satan's
// third branch, at tan(3π/8), is out of asin's reach (see satan).
func cosineSeeds() []float64 {
	xs := []float64{1, -1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1 + 0x1p-52, -1 - 0x1p-52, 2, -3.5, math.MaxFloat64, 5e-324, -5e-324, 0x1p-1022,
		-0x1.fffffffffffffp-1023, 0x1p-30, 0.5, -0.25, 0.999999, -0.999999,
		-0.780915010164517, 0.9996430484861536, // 1 - x*x
		0.5488124327341959, 0.5282015194784015, // x*x + Q0
		-0.5388538853000595, 0.5260161681123932, 0.8758254871103512, -0.5026995918592838, // P
		0.8395563524944689, 0.5482527563249295, 0.8396014132650529, 0.45498609647198474,
		0.5171610762146588, 0.836382434298063, 0.536525345211625, -0.5022239128450416, // Q
		0.8854085822000373, 0.5459794581689426, 0.26428244692641134, -0.47539452346077893,
		0.847208769841286, 0.8295878006841209, // x*z + x
	}
	k := 0.66 / math.Sqrt(1+0.66*0.66)
	for _, t := range []float64{0.7, k, 1 / math.Sqrt(1+0.66*0.66)} {
		for _, sign := range []float64{1, -1} {
			lo, hi := sign*t, sign*t
			for i := 0; i < 24; i++ {
				xs = append(xs, lo, hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
			for i := 1; i <= 8; i++ {
				xs = append(xs, sign*t*(1-float64(i)*1e-7), sign*t*(1+float64(i)*1e-7))
			}
		}
	}
	return xs
}

// math.Acos fuses multiply-adds where the compiler may (arm64, ppc64le,
// s390x, ...) and is assembly on s390x; acos is its unfused order.
func unfusedAcos(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("math.Acos may fuse multiply-adds on %s", runtime.GOARCH)
	}
}

func FuzzAcosMatchesReference(f *testing.F) {
	for _, x := range cosineSeeds() {
		f.Add(math.Float64bits(x))
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 64; i++ {
		f.Add(math.Float64bits(2*rng.Float64() - 1))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		unfusedAcos(t)
		x := math.Float64frombits(bits)
		if got, want := acos(x), math.Acos(x); !sameBits(got, want) {
			t.Fatalf("acos(%v) = %v (%#x), math.Acos %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// angleSeed packs the (dot, na, nb) triples of four lanes, dots first.
func angleSeed(dot, na, nb [4]float64) []byte {
	data := make([]byte, 0, 96)
	for _, v := range [][4]float64{dot, na, nb} {
		for _, x := range v {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
	}
	return data
}

func FuzzAnglesMatchesGoForm(f *testing.F) {
	// Unit norms make the cosine the dot product itself.
	one := [4]float64{1, 1, 1, 1}
	xs := cosineSeeds()
	for i := 0; i+4 <= len(xs); i += 4 {
		f.Add(uint8(4), angleSeed([4]float64(xs[i:i+4]), one, one))
	}
	inf, nan := math.Inf(1), math.NaN()
	f.Add(uint8(4), angleSeed([4]float64{1, 1, nan, 0}, [4]float64{0, 1, 1, 0}, [4]float64{1, 0, 1, 0}))
	f.Add(uint8(4), angleSeed([4]float64{inf, 3, -3, 2}, [4]float64{inf, 2, 2, 0x1p-1074}, [4]float64{1, 2, 2, 0x1p-1074}))
	f.Add(uint8(4), angleSeed([4]float64{1, -1, 5e-324, 0}, [4]float64{-1, inf, 5e-324, math.Copysign(0, -1)}, [4]float64{-1, inf, 5e-324, 1}))
	f.Add(uint8(4), angleSeed([4]float64{nan, 1e300, -1e300, 1}, [4]float64{nan, 1e300, 1e300, 1e-300}, [4]float64{1, 1e300, 1e300, 1e-300}))
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31} {
		data := make([]byte, 0, 24*n)
		dots := make([]float64, n)
		norms := make([]float64, 2*n)
		for k := range dots {
			norms[k], norms[n+k] = rng.Float64()*10, rng.Float64()*10
			dots[k] = (2*rng.Float64() - 1) * math.Sqrt(norms[k]*norms[n+k])
		}
		for _, x := range append(dots, norms...) {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
		f.Add(uint8(n), data)
	}
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte) {
		n := int(n8) % 40
		v := values(data, 3*n)
		dot, na, nb := v[:n], v[n:2*n], v[2*n:]
		got := make([]float64, n)
		Angles(got, dot, na, nb)
		for i, g := range got {
			if want := Angle(dot[i], na[i], nb[i]); !sameBits(g, want) {
				t.Fatalf("n %d entry %d: Angle(%v, %v, %v): lanes %v (%#x), Go form %v (%#x)",
					n, i, dot[i], na[i], nb[i], g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
		// In place, out being dot.
		Angles(dot, dot, na, nb)
		for i := range got {
			if !sameBits(dot[i], got[i]) {
				t.Fatalf("n %d entry %d: in place %v, apart %v", n, i, dot[i], got[i])
			}
		}
	})
}

// values32 decodes count float32s from data, four little-endian bytes
// each, cycling through data; fewer than four bytes give zeros.
func values32(data []byte, count int) []float32 {
	v := make([]float32, count)
	if len(data) < 4 {
		return v
	}
	words := len(data) / 4
	for i := range v {
		w := i % words
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*w:]))
	}
	return v
}

func FuzzPairDotsMatchesGoForm(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	specials32 := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		float32(math.Copysign(0, -1)), 0, 0x1p-149, -0x1p-149, math.MaxFloat32, 1}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 224} {
		for _, special := range []bool{false, true} {
			data := make([]byte, 4*9*n)
			for i := 0; i < 9*n; i++ {
				x := float32(rng.Float64())
				if special && i%5 == 4 {
					x = specials32[rng.Intn(len(specials32))]
				}
				binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(x))
			}
			f.Add(uint8(n), data)
		}
	}
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte) {
		n := int(n8)
		v := values32(data, 9*n)
		vs := make([][]float32, 9)
		for i := range vs {
			vs[i] = v[i*n : (i+1)*n]
		}
		nx, dots := Dot4(vs[0], vs[1], vs[2], vs[3], vs[4])
		wantNx, wantDots := dot4Go(vs[0], vs[1], vs[2], vs[3], vs[4])
		if !sameBits(nx, wantNx) {
			t.Fatalf("n %d: Dot4 norm %v (%#x), Go form %v (%#x)", n, nx, math.Float64bits(nx), wantNx, math.Float64bits(wantNx))
		}
		a, b := [4][]float32(vs[1:5]), [4][]float32(vs[5:9])
		pairs, wantPairs := DotPairs(&a, &b), dotPairsGo(&a, &b)
		for i := range dots {
			if !sameBits(dots[i], wantDots[i]) {
				t.Fatalf("n %d: Dot4 lane %d: %v (%#x), Go form %v (%#x)",
					n, i, dots[i], math.Float64bits(dots[i]), wantDots[i], math.Float64bits(wantDots[i]))
			}
			if !sameBits(pairs[i], wantPairs[i]) {
				t.Fatalf("n %d: DotPairs lane %d: %v (%#x), Go form %v (%#x)",
					n, i, pairs[i], math.Float64bits(pairs[i]), wantPairs[i], math.Float64bits(wantPairs[i]))
			}
		}
	})
}
