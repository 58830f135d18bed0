package scene

import (
	"math"
	"testing"

	"repro/internal/spectral"
)

func testConfig() Config {
	return Config{Lines: 48, Samples: 40, Bands: 32, Seed: 1}
}

func mustGenerate(t *testing.T, cfg Config) *Scene {
	t.Helper()
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestGenerateValidation(t *testing.T) {
	for _, bad := range []Config{
		{Lines: 8, Samples: 40, Bands: 32},
		{Lines: 40, Samples: 8, Bands: 32},
		{Lines: 40, Samples: 40, Bands: 4},
	} {
		if _, err := Generate(bad); err == nil {
			t.Errorf("Generate(%+v): expected error", bad)
		}
	}
}

func TestGenerateGeometry(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	c := sc.Cube
	if c.Lines != 48 || c.Samples != 40 || c.Bands != 32 {
		t.Fatalf("cube geometry %dx%dx%d", c.Lines, c.Samples, c.Bands)
	}
	if len(sc.Truth.ClassMap) != c.NumPixels() {
		t.Errorf("class map length %d", len(sc.Truth.ClassMap))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := mustGenerate(t, testConfig())
	b := mustGenerate(t, testConfig())
	for i := range a.Cube.Data {
		if a.Cube.Data[i] != b.Cube.Data[i] {
			t.Fatal("same seed produced different scenes")
		}
	}
	cfg := testConfig()
	cfg.Seed = 2
	c := mustGenerate(t, cfg)
	same := true
	for i := range a.Cube.Data {
		if a.Cube.Data[i] != c.Cube.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical scenes")
	}
}

func TestSevenHotSpotsPlanted(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	if len(sc.Truth.HotSpots) != 7 {
		t.Fatalf("planted %d hot spots", len(sc.Truth.HotSpots))
	}
	seen := map[string]bool{}
	pos := map[[2]int]bool{}
	for _, h := range sc.Truth.HotSpots {
		seen[h.Label] = true
		key := [2]int{h.Line, h.Sample}
		if pos[key] {
			t.Errorf("hot spots collide at %v", key)
		}
		pos[key] = true
		if h.Line < 0 || h.Line >= sc.Cube.Lines || h.Sample < 0 || h.Sample >= sc.Cube.Samples {
			t.Errorf("hot spot %s outside the scene", h.Label)
		}
		// Hot spot pixels must be inside the debris field.
		if sc.Truth.ClassMap[sc.Cube.FlatIndex(h.Line, h.Sample)] == -1 {
			t.Errorf("hot spot %s outside the debris field", h.Label)
		}
		if len(h.Signature) != sc.Cube.Bands {
			t.Errorf("hot spot %s signature has %d bands", h.Label, len(h.Signature))
		}
	}
	for _, want := range HotSpotLabels {
		if !seen[want] {
			t.Errorf("hot spot %s missing", want)
		}
	}
}

func TestHotSpotTemperatures(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	byLabel := map[string]HotSpot{}
	for _, h := range sc.Truth.HotSpots {
		byLabel[h.Label] = h
	}
	if byLabel["F"].TempF != 700 {
		t.Errorf("F temperature = %v, want 700", byLabel["F"].TempF)
	}
	if byLabel["G"].TempF != 1300 {
		t.Errorf("G temperature = %v, want 1300", byLabel["G"].TempF)
	}
	for label, h := range byLabel {
		if h.TempF < 700 || h.TempF > 1300 {
			t.Errorf("hot spot %s temperature %v outside 700-1300F", label, h.TempF)
		}
	}
}

func TestHotSpotsAreBrightest(t *testing.T) {
	// The ATDCA seed step picks the brightest pixel of the scene; that
	// must be one of the planted targets (hotter = brighter).
	sc := mustGenerate(t, testConfig())
	c := sc.Cube
	best, bestB := 0, -1.0
	for p := 0; p < c.NumPixels(); p++ {
		if b := c.Brightness(p); b > bestB {
			best, bestB = p, b
		}
	}
	l, s := c.Coord(best)
	for _, h := range sc.Truth.HotSpots {
		if h.Line == l && h.Sample == s {
			if h.Label != "G" {
				t.Logf("brightest pixel is hot spot %s (G expected but any target acceptable)", h.Label)
			}
			return
		}
	}
	t.Errorf("brightest pixel (%d,%d) is not a planted target", l, s)
}

func TestHotSpotFIsFaintest(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	c := sc.Cube
	var f, g float64
	for _, h := range sc.Truth.HotSpots {
		b := c.Brightness(c.FlatIndex(h.Line, h.Sample))
		switch h.Label {
		case "F":
			f = b
		case "G":
			g = b
		}
	}
	if f >= g {
		t.Errorf("700F target brightness %v not below 1300F target %v", f, g)
	}
}

func TestClassMapCoversSevenClasses(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	counts := map[int]int{}
	for _, cls := range sc.Truth.ClassMap {
		counts[cls]++
	}
	if counts[-1] == 0 {
		t.Error("no background pixels")
	}
	for cls := 0; cls < NumClasses; cls++ {
		if counts[cls] == 0 {
			t.Errorf("class %d (%s) has no pixels", cls, ClassNames[cls])
		}
	}
	if len(sc.Truth.ClassSigs) != NumClasses {
		t.Errorf("%d class signatures", len(sc.Truth.ClassSigs))
	}
}

func TestClassMapSpatiallyCoherent(t *testing.T) {
	// Voronoi patches: most debris pixels share a class with their right
	// neighbour.
	sc := mustGenerate(t, testConfig())
	c := sc.Cube
	same, total := 0, 0
	for l := 0; l < c.Lines; l++ {
		for s := 0; s+1 < c.Samples; s++ {
			a := sc.Truth.ClassMap[c.FlatIndex(l, s)]
			b := sc.Truth.ClassMap[c.FlatIndex(l, s+1)]
			if a == -1 || b == -1 {
				continue
			}
			total++
			if a == b {
				same++
			}
		}
	}
	if total == 0 {
		t.Fatal("no adjacent debris pairs")
	}
	// The test scene's debris zone is only ~19x16 pixels, so Voronoi
	// borders claim a sizeable share; 0.75 still asserts coherent patches.
	if frac := float64(same) / float64(total); frac < 0.75 {
		t.Errorf("spatial coherence %v, want >= 0.75", frac)
	}
}

func TestDebrisPixelsResembleTheirClass(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	c := sc.Cube
	hot := map[int]bool{}
	for _, h := range sc.Truth.HotSpots {
		hot[c.FlatIndex(h.Line, h.Sample)] = true
	}
	agree, total := 0, 0
	for p := 0; p < c.NumPixels(); p++ {
		cls := sc.Truth.ClassMap[p]
		if cls == -1 || hot[p] {
			continue
		}
		got, best := 0, spectral.SAD(c.PixelAt(p), sc.Truth.ClassSigs[0])
		for k, sig := range sc.Truth.ClassSigs[1:] {
			if d := spectral.SAD(c.PixelAt(p), sig); d < best {
				got, best = k+1, d
			}
		}
		total++
		if got == cls {
			agree++
		}
	}
	// Classes are deliberately similar; still, most pixels should match
	// their own class signature best.
	if frac := float64(agree) / float64(total); frac < 0.6 {
		t.Errorf("only %v of debris pixels closest to their own class", frac)
	}
}

func TestShadowPixelsAreDim(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	if len(sc.Truth.ShadowPixels) == 0 {
		t.Fatal("no shadow pixels planted")
	}
	stats := sc.Cube.ComputeStats()
	for _, p := range sc.Truth.ShadowPixels {
		v := sc.Cube.PixelAt(p)
		var mean float64
		for _, x := range v {
			mean += float64(x)
		}
		mean /= float64(len(v))
		if mean > stats.Mean {
			t.Errorf("shadow pixel %d brighter than the scene mean", p)
		}
		if sc.Truth.ClassMap[p] != -1 {
			t.Errorf("shadow pixel %d inside the debris field", p)
		}
	}
}

func TestShadowsDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.ShadowFraction = -1
	sc := mustGenerate(t, cfg)
	if len(sc.Truth.ShadowPixels) != 0 {
		t.Errorf("planted %d shadows with shadows disabled", len(sc.Truth.ShadowPixels))
	}
}

func TestNoiseLevelTracksSNR(t *testing.T) {
	clean := testConfig()
	clean.SNRdB = 60
	noisy := testConfig()
	noisy.SNRdB = 15
	a := mustGenerate(t, clean)
	b := mustGenerate(t, noisy)
	// Compare each scene's high-frequency band-to-band variation on a
	// background pixel; the noisy scene must show more.
	rough := func(sc *Scene) float64 {
		v := sc.Cube.Pixel(1, 1)
		var r float64
		for i := 1; i < len(v); i++ {
			d := float64(v[i] - v[i-1])
			r += d * d
		}
		return r
	}
	if rough(b) <= rough(a) {
		t.Error("lower SNR did not increase band-to-band roughness")
	}
}

func TestAllSamplesFiniteNonNegative(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	for i, v := range sc.Cube.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			t.Fatalf("sample %d = %v", i, v)
		}
	}
}

func TestLibraryContents(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	for _, name := range append([]string{"vegetation", "asphalt", "water", "smoke", "generic dust"}, ClassNames...) {
		if _, ok := sc.Library.Get(name); !ok {
			t.Errorf("library missing %q", name)
		}
	}
}

func TestDebrisClassesSpectrallySimilarButDistinct(t *testing.T) {
	sc := mustGenerate(t, testConfig())
	for i := 0; i < NumClasses; i++ {
		for j := i + 1; j < NumClasses; j++ {
			d := spectral.SAD(sc.Truth.ClassSigs[i], sc.Truth.ClassSigs[j])
			if d == 0 {
				t.Errorf("classes %d and %d identical", i, j)
			}
			if d > 0.6 {
				t.Errorf("classes %d and %d too dissimilar (%v): unrealistically easy", i, j, d)
			}
		}
	}
}

func TestWTCConfigs(t *testing.T) {
	d := WTCDefault()
	if d.Lines <= 0 || d.Samples <= 0 || d.Bands <= 0 {
		t.Errorf("WTCDefault = %+v", d)
	}
	f := WTCFull()
	if f.Lines != 2133 || f.Samples != 512 || f.Bands != 224 {
		t.Errorf("WTCFull = %+v, want the paper's geometry", f)
	}
}

func TestHotSpotThermalShapeSurvivesMixing(t *testing.T) {
	// The planted pixel should still be closest to its own thermal
	// signature among all hot-spot signatures.
	sc := mustGenerate(t, testConfig())
	for _, h := range sc.Truth.HotSpots {
		pixel := sc.Cube.Pixel(h.Line, h.Sample)
		if d := spectral.SAD(pixel, h.Signature); d > 0.5 {
			t.Errorf("hot spot %s pixel drifted too far from its signature: SAD=%v", h.Label, d)
		}
	}
}

func BenchmarkKernelSceneGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Lines: 128, Samples: 64, Bands: 48, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
