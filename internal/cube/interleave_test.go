package cube

import (
	"testing"
	"testing/quick"
)

func numberedCube() *Cube {
	c := MustNew(2, 3, 4)
	for i := range c.Data {
		c.Data[i] = float32(i)
	}
	return c
}

func TestInterleaveValid(t *testing.T) {
	for _, il := range []Interleave{BIP, BIL, BSQ} {
		if !il.Valid() {
			t.Errorf("%q not valid", il)
		}
	}
	if Interleave("bogus").Valid() {
		t.Error("bogus interleave accepted")
	}
}

func TestSamples3DBIPIsCopy(t *testing.T) {
	c := numberedCube()
	out, err := c.Samples3D(BIP)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = -1
	if c.Data[0] == -1 {
		t.Error("BIP export shares storage")
	}
}

func TestBILOrdering(t *testing.T) {
	c := numberedCube()
	out, err := c.Samples3D(BIL)
	if err != nil {
		t.Fatal(err)
	}
	// BIL: [line][band][sample]; element (l=0,b=0,s=1) is at index 1 and
	// equals c.At(0,1,0).
	if out[1] != c.At(0, 1, 0) {
		t.Errorf("BIL[1] = %v, want %v", out[1], c.At(0, 1, 0))
	}
	// (l=1, b=2, s=0) -> 1*(4*3) + 2*3 + 0 = 18.
	if out[18] != c.At(1, 0, 2) {
		t.Errorf("BIL[18] = %v, want %v", out[18], c.At(1, 0, 2))
	}
}

func TestBSQOrdering(t *testing.T) {
	c := numberedCube()
	out, err := c.Samples3D(BSQ)
	if err != nil {
		t.Fatal(err)
	}
	// BSQ: [band][line][sample]; (b=3,l=1,s=2) -> 3*(2*3)+1*3+2 = 23.
	if out[23] != c.At(1, 2, 3) {
		t.Errorf("BSQ[23] = %v, want %v", out[23], c.At(1, 2, 3))
	}
	if out[0] != c.At(0, 0, 0) {
		t.Error("BSQ[0] wrong")
	}
}

func TestSamples3DUnknownInterleave(t *testing.T) {
	if _, err := numberedCube().Samples3D(Interleave("x")); err == nil {
		t.Error("unknown interleave: expected error")
	}
	if _, err := FromSamples3D(2, 3, 4, Interleave("x"), make([]float32, 24)); err == nil {
		t.Error("unknown interleave: expected error")
	}
	if _, err := FromSamples3D(2, 3, 4, BIL, make([]float32, 23)); err == nil {
		t.Error("short data: expected error")
	}
}

// Property: exporting to any interleave and re-importing reproduces the
// cube exactly.
func TestQuickInterleaveRoundTrip(t *testing.T) {
	f := func(seed uint8) bool {
		lines, samples, bands := 1+int(seed)%4, 2+int(seed)%3, 2+int(seed)%5
		c := MustNew(lines, samples, bands)
		for i := range c.Data {
			c.Data[i] = float32((int(seed) + i*7) % 101)
		}
		for _, il := range []Interleave{BIP, BIL, BSQ} {
			flat, err := c.Samples3D(il)
			if err != nil {
				return false
			}
			back, err := FromSamples3D(lines, samples, bands, il, flat)
			if err != nil {
				return false
			}
			for i := range c.Data {
				if back.Data[i] != c.Data[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelInterleave(b *testing.B) {
	f := MustNew(128, 64, 64)
	for i := range f.Data {
		f.Data[i] = float32(i%509) / 509
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat, err := f.Samples3D(BIL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FromSamples3D(f.Lines, f.Samples, f.Bands, BIL, flat); err != nil {
			b.Fatal(err)
		}
	}
}
