package cube

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := New(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("New(%v): expected error", bad)
		}
	}
	c, err := New(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Data) != 4*3*2 {
		t.Errorf("data length %d", len(c.Data))
	}
	if c.NumPixels() != 12 || c.SizeBytes() != 96 {
		t.Errorf("NumPixels=%d SizeBytes=%d", c.NumPixels(), c.SizeBytes())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0,0,0) did not panic")
		}
	}()
	MustNew(0, 0, 0)
}

func TestBIPLayout(t *testing.T) {
	c := MustNew(2, 3, 4)
	c.Set(1, 2, 3, 42)
	// (l,s,b) = ((1*3)+2)*4 + 3 = 23
	if c.Data[23] != 42 {
		t.Errorf("BIP index wrong: %v", c.Data)
	}
	if c.At(1, 2, 3) != 42 {
		t.Errorf("At = %v", c.At(1, 2, 3))
	}
}

func TestPixelIsContiguousView(t *testing.T) {
	c := MustNew(2, 2, 3)
	v := c.Pixel(1, 0)
	if len(v) != 3 {
		t.Fatalf("pixel length %d", len(v))
	}
	v[1] = 7
	if c.At(1, 0, 1) != 7 {
		t.Error("Pixel is not a view into the cube")
	}
	// The view must not be appendable into the neighbouring pixel.
	v2 := append(v, 99)
	if c.At(1, 1, 0) == 99 {
		t.Error("append through pixel view corrupted the neighbour")
	}
	_ = v2
}

func TestPixelAtMatchesPixel(t *testing.T) {
	c := MustNew(3, 4, 2)
	for i := range c.Data {
		c.Data[i] = float32(i)
	}
	for p := 0; p < c.NumPixels(); p++ {
		l, s := c.Coord(p)
		a, b := c.PixelAt(p), c.Pixel(l, s)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("pixel %d mismatch at band %d", p, k)
			}
		}
		if c.FlatIndex(l, s) != p {
			t.Fatalf("FlatIndex(%d,%d) != %d", l, s, p)
		}
	}
}

func TestSetPixel(t *testing.T) {
	c := MustNew(2, 2, 3)
	c.SetPixel(0, 1, []float32{1, 2, 3})
	if c.At(0, 1, 2) != 3 {
		t.Error("SetPixel did not store values")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetPixel with wrong band count did not panic")
		}
	}()
	c.SetPixel(0, 0, []float32{1})
}

func TestClone(t *testing.T) {
	c := MustNew(2, 2, 2)
	c.Set(0, 0, 0, 5)
	d := c.Clone()
	d.Set(0, 0, 0, 9)
	if c.At(0, 0, 0) != 5 {
		t.Error("Clone shares storage")
	}
}

func TestRowsView(t *testing.T) {
	c := MustNew(5, 3, 2)
	for i := range c.Data {
		c.Data[i] = float32(i)
	}
	v, err := c.Rows(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lines != 3 || v.Samples != 3 || v.Bands != 2 {
		t.Fatalf("view geometry %dx%dx%d", v.Lines, v.Samples, v.Bands)
	}
	if v.At(0, 0, 0) != c.At(1, 0, 0) {
		t.Error("view line 0 is not cube line 1")
	}
	v.Set(0, 0, 0, -1)
	if c.At(1, 0, 0) != -1 {
		t.Error("Rows is not a view")
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := c.Rows(bad[0], bad[1]); err == nil {
			t.Errorf("Rows(%d,%d): expected error", bad[0], bad[1])
		}
	}
}

func TestBrightness(t *testing.T) {
	c := MustNew(1, 2, 3)
	c.SetPixel(0, 1, []float32{1, 2, 2})
	if got := c.Brightness(1); got != 9 {
		t.Errorf("Brightness = %v, want 9", got)
	}
	if got := c.Brightness(0); got != 0 {
		t.Errorf("zero pixel brightness = %v", got)
	}
}

func TestComputeStats(t *testing.T) {
	c := MustNew(1, 1, 4)
	copy(c.Data, []float32{1, 2, 3, 4})
	s := c.ComputeStats()
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2.5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestBandImage(t *testing.T) {
	c := MustNew(2, 2, 3)
	for p := 0; p < 4; p++ {
		c.PixelAt(p)[1] = float32(p * 10)
	}
	img, err := c.BandImage(1)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range img {
		if v != float32(p*10) {
			t.Fatalf("band image = %v", img)
		}
	}
	if _, err := c.BandImage(3); err == nil {
		t.Error("out-of-range band: expected error")
	}
	if _, err := c.BandImage(-1); err == nil {
		t.Error("negative band: expected error")
	}
}

func TestRoundTripIO(t *testing.T) {
	c := MustNew(3, 4, 5)
	for i := range c.Data {
		c.Data[i] = float32(math.Sin(float64(i)))
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lines != 3 || got.Samples != 4 || got.Bands != 5 {
		t.Fatalf("geometry %dx%dx%d", got.Lines, got.Samples, got.Bands)
	}
	for i := range c.Data {
		if got.Data[i] != c.Data[i] {
			t.Fatalf("sample %d: %v != %v", i, got.Data[i], c.Data[i])
		}
	}
}

func TestReadRejectsCorruptHeaders(t *testing.T) {
	cases := []string{
		"NOTMAGIC\n",
		"HYPERCUBE\nlines = 2\n\n", // missing fields
		"HYPERCUBE\nlines = x\nsamples = 2\nbands = 2\ninterleave = bip\ndata type = float32\n\n",
		"HYPERCUBE\nlines = 2\nsamples = 2\nbands = 2\ninterleave = bsq\ndata type = float32\n\n",
		"HYPERCUBE\nlines = 2\nsamples = 2\nbands = 2\ninterleave = bip\ndata type = int16\n\n",
		"HYPERCUBE\nbadline\n\n",
	}
	for _, h := range cases {
		if _, err := Read(bytes.NewBufferString(h)); err == nil {
			t.Errorf("Read(%q): expected error", h)
		}
	}
}

func TestReadTruncatedData(t *testing.T) {
	c := MustNew(2, 2, 2)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream: expected error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scene.hc")
	c := MustNew(2, 3, 4)
	c.Set(1, 2, 3, 1.25)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 2, 3) != 1.25 {
		t.Errorf("loaded sample = %v", got.At(1, 2, 3))
	}
	if _, err := Load(filepath.Join(dir, "missing.hc")); err == nil {
		t.Error("missing file: expected error")
	}
}

// Property: serialization round-trips arbitrary finite sample values.
func TestQuickIORoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		c := MustNew(1, 1, n)
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			c.Data[i] = v
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		for i := range c.Data {
			if got.Data[i] != c.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rows views tile the cube without overlap — writing distinct
// values through adjacent views never collides.
func TestQuickRowViewsTile(t *testing.T) {
	f := func(splitRaw uint8) bool {
		c := MustNew(8, 2, 2)
		split := 1 + int(splitRaw)%7
		top, err1 := c.Rows(0, split)
		bot, err2 := c.Rows(split, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range top.Data {
			top.Data[i] = 1
		}
		for i := range bot.Data {
			bot.Data[i] = 2
		}
		ones := split * 2 * 2
		for i, v := range c.Data {
			want := float32(2)
			if i < ones {
				want = 1
			}
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
