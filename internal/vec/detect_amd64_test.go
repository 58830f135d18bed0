//go:build linux && amd64 && !purego

package vec

import (
	"os"
	"strings"
	"testing"
)

// TestVectorPathSelected fails when the AVX2 forms are not chosen on a
// processor that has AVX2, or are chosen on one that does not: a
// detection bug would otherwise give up the speed, or crash, without a
// wrong bit to show for it.
func TestVectorPathSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = strings.Contains(flags+" ", " avx2 ")
			break
		}
	}
	if vector != listed {
		t.Fatalf("AVX2 path selected = %v, /proc/cpuinfo lists avx2 = %v", vector, listed)
	}
}
