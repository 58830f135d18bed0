//go:build !amd64 || purego

package vec

// vector is false: only the Go forms run here.
const vector = false

// The assembly entry points exist only to type-check vec.go's calls,
// which vector's being false removes.

func dotBlocksAVX2(x *float64, n int, p, out *float64, blocks int) {
	panic("vec: no vector path in this build")
}

func addProducts4AVX2(dst *float64, n int, a *[4]float64, f0, f1, f2, f3 *float64) {
	panic("vec: no vector path in this build")
}

func dot4AVX2(x, a, b, c, d *float32, n int, out *[5]float64) {
	panic("vec: no vector path in this build")
}

func dotPairsAVX2(a0, a1, a2, a3, b0, b1, b2, b3 *float32, n int, out *[4]float64) {
	panic("vec: no vector path in this build")
}

func anglesAVX2(out, dot, na, nb *float64, groups int) {
	panic("vec: no vector path in this build")
}
