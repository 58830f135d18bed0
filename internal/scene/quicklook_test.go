package scene

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteQuicklookPPM(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	var buf bytes.Buffer
	if err := WriteQuicklook(&buf, sc.Cube); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	wantHeader := fmt.Sprintf("P6\n%d %d\n255\n", sc.Cube.Samples, sc.Cube.Lines)
	if !bytes.HasPrefix(out, []byte(wantHeader)) {
		t.Fatalf("PPM header = %q", out[:20])
	}
	wantLen := len(wantHeader) + sc.Cube.NumPixels()*3
	if len(out) != wantLen {
		t.Errorf("PPM size %d, want %d", len(out), wantLen)
	}
	// The image must not be flat: vegetation vs water vs debris differ.
	body := out[len(wantHeader):]
	min, max := body[0], body[0]
	for _, b := range body {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max-min < 100 {
		t.Errorf("quicklook has no contrast: %d..%d", min, max)
	}
}

func TestSaveQuicklookFile(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	path := filepath.Join(t.TempDir(), "fig1.ppm")
	if err := SaveQuicklook(path, sc.Cube); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < int64(sc.Cube.NumPixels()*3) {
		t.Errorf("file too small: %d bytes", info.Size())
	}
	if err := SaveQuicklook(filepath.Join(t.TempDir(), "missing", "x.ppm"), sc.Cube); err == nil {
		t.Error("unwritable path: expected error")
	}
}

func TestNearestBand(t *testing.T) {
	// With 224 bands over 0.4-2.5um, 0.655um lands near band 27.
	b := nearestBand(224, 0.655)
	wl := 0.4 + (2.5-0.4)*float64(b)/223
	if wl < 0.64 || wl > 0.67 {
		t.Errorf("nearest band %d has wavelength %v", b, wl)
	}
	if nearestBand(10, 0.0) != 0 || nearestBand(10, 99) != 9 {
		t.Error("extremes should clamp to first/last band")
	}
}

func TestPercentilesAndStretch(t *testing.T) {
	img := make([]float32, 1000)
	for i := range img {
		img[i] = float32(i)
	}
	lo, hi := percentiles(img, 0.02, 0.98)
	if lo < 10 || lo > 40 || hi < 950 || hi > 990 {
		t.Errorf("percentiles = %v, %v", lo, hi)
	}
	if stretch(lo-1, lo, hi) != 0 || stretch(hi+1, lo, hi) != 255 {
		t.Error("stretch clamping wrong")
	}
	mid := stretch((lo+hi)/2, lo, hi)
	if mid < 120 || mid > 135 {
		t.Errorf("midpoint stretch = %d", mid)
	}
	// Degenerate flat image must not divide by zero.
	flat := []float32{5, 5, 5}
	lo, hi = percentiles(flat, 0.02, 0.98)
	if hi <= lo {
		t.Error("flat percentiles degenerate")
	}
}
