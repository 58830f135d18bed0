package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSADIdenticalIsZero(t *testing.T) {
	a := []float32{1, 2, 3}
	if got := SAD(a, a); got > 1e-7 {
		t.Errorf("SAD(a,a) = %v", got)
	}
}

func TestSADScaleInvariant(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{2, 4, 6}
	if got := SAD(a, b); got > 1e-6 {
		t.Errorf("SAD of scaled vector = %v, want ~0", got)
	}
}

func TestSADOrthogonal(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := SAD(a, b); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("SAD orthogonal = %v, want pi/2", got)
	}
}

func TestSADOpposite(t *testing.T) {
	a := []float32{1, 1}
	b := []float32{-1, -1}
	if got := SAD(a, b); math.Abs(got-math.Pi) > 1e-6 {
		t.Errorf("SAD opposite = %v, want pi", got)
	}
}

func TestSADZeroVectorConvention(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{1, 2}
	if got := SAD(a, b); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("SAD with zero vector = %v, want pi/2", got)
	}
}

func TestSADLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	SAD([]float32{1}, []float32{1, 2})
}

func TestSADf64MatchesSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		a32, b32 := make([]float32, n), make([]float32, n)
		a64, b64 := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a32[i] = float32(rng.NormFloat64())
			b32[i] = float32(rng.NormFloat64())
			a64[i], b64[i] = float64(a32[i]), float64(b32[i])
		}
		if math.Abs(SAD(a32, b32)-SADf64(a64, b64)) > 1e-6 {
			t.Fatalf("trial %d: float32/float64 SAD disagree", trial)
		}
	}
}

// Property: SAD is symmetric and within [0, pi].
func TestQuickSADSymmetricBounded(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			x, y := raw[i], raw[n+i]
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				x = 0
			}
			if math.IsNaN(float64(y)) || math.IsInf(float64(y), 0) {
				y = 0
			}
			a[i], b[i] = x, y
		}
		d1, d2 := SAD(a, b), SAD(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: a NaN (or Inf-contaminated) sample used to yield a NaN
// distance, and NaN compares false against everything — argmin scans
// like Set.Nearest would silently keep their initial +Inf "best" and
// report garbage. Non-finite inputs must map to pi instead.
func TestSADNonFiniteMaximallyDissimilar(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	clean := []float32{0.3, 0.7, 0.1}
	cases := [][]float32{
		{nan, 0.7, 0.1},
		{0.3, nan, nan},
		{inf, 0.7, 0.1},
		{0.3, float32(math.Inf(-1)), 0.1},
	}
	for i, dirty := range cases {
		if got := SAD(dirty, clean); got != math.Pi {
			t.Errorf("case %d: SAD(dirty, clean) = %v, want pi", i, got)
		}
		if got := SAD(clean, dirty); got != math.Pi {
			t.Errorf("case %d: SAD(clean, dirty) = %v, want pi", i, got)
		}
	}
	if got := SADf64([]float64{math.NaN(), 1}, []float64{1, 1}); got != math.Pi {
		t.Errorf("SADf64 with NaN = %v, want pi", got)
	}
}

func TestMostSimilarNaNPixelNotPoisoned(t *testing.T) {
	set := [][]float32{{1, 0}, {0, 1}}
	i, d := NewSet(set).Nearest(new(Pixel).Load([]float32{float32(math.NaN()), 1}), NoLimit)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("NaN pixel poisoned the scan: d = %v", d)
	}
	if i != 0 || d != math.Pi {
		t.Errorf("NaN pixel: got (%d, %v), want deterministic (0, pi)", i, d)
	}
}

func TestMostSimilarSkipsNaNSignature(t *testing.T) {
	// A corrupt library entry must lose to any finite match, and lose
	// deterministically even when it is scanned first.
	set := [][]float32{{float32(math.NaN()), 0.5}, {0, 1}}
	i, d := NewSet(set).Nearest(new(Pixel).Load([]float32{0, 2}), NoLimit)
	if i != 1 || d > 1e-6 {
		t.Errorf("got (%d, %v), want the clean matching signature (1, ~0)", i, d)
	}
}

func TestWavelengths(t *testing.T) {
	w := Wavelengths(224)
	if len(w) != 224 || w[0] != WavelengthMin || w[223] != WavelengthMax {
		t.Errorf("Wavelengths endpoints %v..%v", w[0], w[223])
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Fatal("wavelengths not increasing")
		}
	}
	if single := Wavelengths(1); len(single) != 1 || single[0] <= 0 {
		t.Errorf("Wavelengths(1) = %v", single)
	}
}

func TestSynthesizeBaselineAndClamp(t *testing.T) {
	flat := Synthesize(10, 0.5, 0, nil)
	for _, v := range flat {
		if math.Abs(float64(v)-0.5) > 1e-6 {
			t.Fatalf("flat signature = %v", flat)
		}
	}
	// A strong negative feature must clamp at zero, not go negative.
	dipped := Synthesize(50, 0.2, 0, []Feature{{Center: 1.4, Width: 0.05, Amplitude: -5}})
	for _, v := range dipped {
		if v < 0 {
			t.Fatal("negative reflectance not clamped")
		}
	}
}

func TestSynthesizeSlopeAndFeature(t *testing.T) {
	up := Synthesize(30, 0.1, 0.5, nil)
	if up[29] <= up[0] {
		t.Error("positive slope not rising")
	}
	peaked := Synthesize(101, 0.1, 0, []Feature{{Center: 1.45, Width: 0.1, Amplitude: 0.6}})
	// Peak should be near the middle of the range (1.45 um).
	maxI := 0
	for i, v := range peaked {
		if v > peaked[maxI] {
			maxI = i
		}
	}
	wl := Wavelengths(101)
	if math.Abs(wl[maxI]-1.45) > 0.05 {
		t.Errorf("feature peak at %v um, want ~1.45", wl[maxI])
	}
}

func TestPlanckMonotoneInTemperature(t *testing.T) {
	// At any wavelength in range, a hotter blackbody radiates more.
	for _, wl := range []float64{0.5, 1.0, 2.0, 2.5} {
		if Planck(wl, 977) <= Planck(wl, 644) {
			t.Errorf("Planck not monotone in T at %v um", wl)
		}
	}
}

func TestFahrenheitToKelvin(t *testing.T) {
	if got := FahrenheitToKelvin(32); math.Abs(got-273.15) > 1e-9 {
		t.Errorf("32F = %vK", got)
	}
	if got := FahrenheitToKelvin(700); math.Abs(got-644.26) > 0.01 {
		t.Errorf("700F = %vK", got)
	}
}

func TestThermalSignatureShape(t *testing.T) {
	sig := ThermalSignature(64, 1300, 1.0)
	if len(sig) != 64 {
		t.Fatalf("length %d", len(sig))
	}
	// Blackbody at fire temperatures peaks beyond 2.5um, so within the
	// AVIRIS range the curve rises monotonically to the last band.
	var max float32
	for _, v := range sig {
		if v > max {
			max = v
		}
	}
	if math.Abs(float64(max)-1.0) > 1e-6 {
		t.Errorf("peak = %v, want 1.0", max)
	}
	if sig[63] != max {
		t.Error("thermal signature should peak at the longest wavelength")
	}
	if sig[0] >= sig[63] {
		t.Error("thermal signature should rise into the SWIR")
	}
}

func TestThermalSignaturesDistinguishTemperature(t *testing.T) {
	cool := ThermalSignature(64, 700, 1.0)
	hot := ThermalSignature(64, 1300, 1.0)
	if d := SAD(cool, hot); d < 0.05 {
		t.Errorf("700F and 1300F signatures too similar: SAD = %v", d)
	}
}

func TestLibrary(t *testing.T) {
	l := NewLibrary(4)
	if err := l.Add("a", []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("b", []float32{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("short", []float32{1}); err == nil {
		t.Error("wrong band count: expected error")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	if sig, ok := l.Get("b"); !ok || sig[3] != 1 {
		t.Error("Get(b) failed")
	}
	if _, ok := l.Get("missing"); ok {
		t.Error("Get(missing) succeeded")
	}
}

func TestMix(t *testing.T) {
	sigs := [][]float32{{1, 0}, {0, 2}}
	got := Mix(sigs, []float64{0.5, 0.5})
	if got[0] != 0.5 || got[1] != 1 {
		t.Errorf("Mix = %v", got)
	}
	for _, fn := range []func(){
		func() { Mix(sigs, []float64{1}) },
		func() { Mix(nil, nil) },
		func() { Mix([][]float32{{1, 2}, {1}}, []float64{0.5, 0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Mix did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestFlopsSAD(t *testing.T) {
	if FlopsSAD(224) <= FlopsSAD(10) || FlopsSAD(1) <= 0 {
		t.Error("FlopsSAD not sane")
	}
}
