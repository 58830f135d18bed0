//go:build amd64 && !purego

package vec

// vector reports whether the AVX2 forms run: the CPU has AVX2 and the OS
// saves the YMM registers across context switches.
var vector = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// The assembly in vec_amd64.s takes pointers and counts, so that a call
// copies few words. The callers in vec.go pass those of slices whose
// lengths they have checked: x holds n values, p 4*blocks rows of them,
// out 4*blocks results, dst and each f n values, each vector of the pair
// dots n values, and each array of the angles 4*groups values.

//go:noescape
func dotBlocksAVX2(x *float64, n int, p, out *float64, blocks int)

//go:noescape
func addProducts4AVX2(dst *float64, n int, a *[4]float64, f0, f1, f2, f3 *float64)

//go:noescape
func dot4AVX2(x, a, b, c, d *float32, n int, out *[5]float64)

//go:noescape
func dotPairsAVX2(a0, a1, a2, a3, b0, b1, b2, b3 *float32, n int, out *[4]float64)

//go:noescape
func anglesAVX2(out, dot, na, nb *float64, groups int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
