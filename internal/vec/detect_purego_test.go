//go:build purego

package vec

import "testing"

// TestVectorPathSelected checks that the purego tag leaves only the Go
// forms.
func TestVectorPathSelected(t *testing.T) {
	if vector {
		t.Fatal("AVX2 path selected under the purego tag")
	}
}
