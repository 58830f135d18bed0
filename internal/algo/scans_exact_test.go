package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/morph"
	"repro/internal/scene"
	"repro/internal/spectral"
)

// The scans below are the loops over the scalar spectral.SAD that the
// blocked scans in pct.go and morphclass.go replaced. The replacements
// must return the same values — signatures, populations, labels — and
// charge the same number of SAD evaluations to the cost model.

func refUniqueScan(f *cube.Cube, theta float64, maxReps int) ([]rep, int) {
	var reps []rep
	sadCalls := 0
	for p := 0; p < f.NumPixels(); p++ {
		v := f.PixelAt(p)
		if !spectral.Finite(v) {
			continue
		}
		bestI, bestD := -1, theta
		for i := range reps {
			d := spectral.SAD(v, reps[i].sig)
			sadCalls++
			if d < bestD {
				bestI, bestD = i, d
			}
		}
		switch {
		case bestI >= 0:
			reps[bestI].count++
		case len(reps) < maxReps:
			reps = append(reps, rep{sig: append([]float32(nil), v...), count: 1})
		default:
			nearest, nearestD := 0, spectral.SAD(v, reps[0].sig)
			sadCalls++
			for i := 1; i < len(reps); i++ {
				d := spectral.SAD(v, reps[i].sig)
				sadCalls++
				if d < nearestD {
					nearest, nearestD = i, d
				}
			}
			reps[nearest].count++
		}
	}
	return reps, sadCalls
}

func refFilterBySupport(cands []candidate, own *cube.Cube, radius float64, minCount, c int) ([]candidate, int) {
	var out []candidate
	sadCalls := 0
	for _, cd := range cands {
		if len(out) == c {
			break
		}
		count := 0
		mean := make([]float64, own.Bands)
		for p := 0; p < own.NumPixels(); p++ {
			sadCalls++
			v := own.PixelAt(p)
			if spectral.SAD(v, cd.sig) <= radius {
				count++
				for b, x := range v {
					mean[b] += float64(x)
				}
			}
		}
		if count < minCount {
			continue
		}
		refined := make([]float32, own.Bands)
		for b := range refined {
			refined[b] = float32(mean[b] / float64(count))
		}
		cd.sig = refined
		out = append(out, cd)
	}
	if len(out) == 0 {
		if len(cands) > c {
			cands = cands[:c]
		}
		return cands, sadCalls
	}
	return out, sadCalls
}

// dilatedImage builds the image f holds through the source map src.
func dilatedImage(f *cube.Cube, src []int32) *cube.Cube {
	img := cube.MustNew(f.Lines, f.Samples, f.Bands)
	for p, a := range src {
		copy(img.PixelAt(p), f.PixelAt(int(a)))
	}
	return img
}

func refSelectCandidates(f *cube.Cube, scores []float64, loLine, hiLine, c int, theta float64) ([]candidate, int) {
	lo, hi := loLine*f.Samples, hiLine*f.Samples
	order := make([]int, 0, hi-lo)
	for p := lo; p < hi; p++ {
		order = append(order, p)
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	var out []candidate
	sadCalls := 0
	for _, p := range order {
		if len(out) == c {
			break
		}
		v := f.PixelAt(p)
		if !spectral.Finite(v) {
			continue
		}
		distinct := true
		for _, prev := range out {
			sadCalls++
			if spectral.SAD(v, prev.sig) <= theta {
				distinct = false
				break
			}
		}
		if !distinct {
			continue
		}
		l, s := f.Coord(p)
		out = append(out, candidate{line: l, sample: s, score: scores[p], sig: append([]float32(nil), v...), valid: true})
	}
	return out, sadCalls
}

func refFuseCandidates(cands []candidate, c int, theta float64) ([][]float32, int) {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].score > cands[order[b]].score })
	var out [][]float32
	sadCalls := 0
	for _, i := range order {
		if len(out) == c {
			break
		}
		if !cands[i].valid {
			continue
		}
		distinct := true
		for _, prev := range out {
			sadCalls++
			if spectral.SAD(cands[i].sig, prev) <= theta {
				distinct = false
				break
			}
		}
		if distinct {
			out = append(out, cands[i].sig)
		}
	}
	return out, sadCalls
}

func exactScene(t *testing.T, lines, samples, bands int, seed int64) *cube.Cube {
	t.Helper()
	sc, err := scene.Generate(scene.Config{Lines: lines, Samples: samples, Bands: bands, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	poison(sc.Cube, []int{5, 77, 130})
	return sc.Cube
}

func TestUniqueScanMatchesScalarScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := exactScene(t, 32, 24, 16, seed)
		// Small caps force the "set is full" branch; tiny thetas grow the
		// set past one block of four.
		for _, tc := range []struct {
			theta   float64
			maxReps int
		}{{0.04, 48}, {0.04, 5}, {0.01, 48}, {0.2, 3}, {0.004, 11}} {
			want, wantCalls := refUniqueScan(f, tc.theta, tc.maxReps)
			got, gotCalls := uniqueScan(f, tc.theta, tc.maxReps)
			if gotCalls != wantCalls || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d theta %v maxReps %d: %d reps / %d SADs, scalar scan %d reps / %d SADs",
					seed, tc.theta, tc.maxReps, len(got), gotCalls, len(want), wantCalls)
			}
		}
	}
}

// Once the set is full, uniqueScan scans it once per pixel where
// refUniqueScan, like the two-call loop it replaced, scans it twice for an
// absorbed pixel. Pixels at exactly theta from their nearest
// representative, one ulp either side of it, exactly between two
// representatives or orthogonal to all of them must join or be absorbed
// alike and charge the same SADs.
func TestUniqueScanMatchesScalarScanAtTheta(t *testing.T) {
	const bands, founders = 8, 5
	rng := rand.New(rand.NewSource(29))
	f := cube.MustNew(40, 1, bands)
	for p := 0; p < founders; p++ { // mutually orthogonal: every one founds
		f.PixelAt(p)[p] = 1 + float32(p)
	}
	for p := founders; p < f.NumPixels(); p++ {
		px := f.PixelAt(p)
		switch p % 4 {
		case 0: // exactly between representatives 0 and 1, or 2 and 3
			px[p%8/4*2], px[p%8/4*2+1] = 1, 1
		case 1:
			px[bands-1] = 1
		default: // near representative p%founders, leaning off the set
			px[p%founders] = 1
			px[founders+rng.Intn(bands-founders)] = rng.Float32() * 0.3
		}
	}
	set := spectral.NewSet(nil)
	for p := 0; p < founders; p++ {
		set.Add(f.PixelAt(p))
	}
	for p := founders; p < f.NumPixels(); p++ {
		_, d := set.Nearest(new(spectral.Pixel).Load(f.PixelAt(p)), spectral.NoLimit)
		for _, theta := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 4)} {
			want, wantCalls := refUniqueScan(f, theta, founders)
			got, gotCalls := uniqueScan(f, theta, founders)
			if gotCalls != wantCalls || !reflect.DeepEqual(got, want) {
				t.Fatalf("pixel %d theta %v: %v / %d SADs, scalar scan %v / %d SADs", p, theta, got, gotCalls, want, wantCalls)
			}
		}
	}
}

func TestMorphScansMatchScalarScans(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := exactScene(t, 32, 24, 16, seed)
		res := morph.MEI(f, morph.Square(1), 2)
		for _, theta := range []float64{0.06, 0.02, 0.3} {
			name := fmt.Sprintf("seed %d theta %v", seed, theta)
			want, wantCalls := refSelectCandidates(dilatedImage(f, res.Source), res.Scores, 2, 30, 42, theta)
			cands, calls := selectCandidates(f, res.Source, res.Scores, 2, 30, 42, theta)
			if calls != wantCalls || !reflect.DeepEqual(cands, want) {
				t.Fatalf("%s: selectCandidates %d / %d SADs, scalar %d / %d", name, len(cands), calls, len(want), wantCalls)
			}
			own, err := f.Rows(2, 30)
			if err != nil {
				t.Fatal(err)
			}
			// Caps of 1, 5, 16 and 21 stop the walk inside, at the end of
			// and beyond a block of sixteen; a floor of 1000 rejects
			// everything.
			for _, cap := range []int{1, 5, 16, 21} {
				for _, minCount := range []int{4, 40, 1000} {
					wantF, wantCalls := refFilterBySupport(want, own, theta, minCount, cap)
					gotF, gotCalls := filterBySupport(cands, own, theta, minCount, cap)
					if gotCalls != wantCalls || !reflect.DeepEqual(gotF, wantF) {
						t.Fatalf("%s cap %d floor %d: filterBySupport %d / %d SADs, scalar %d / %d",
							name, cap, minCount, len(gotF), gotCalls, len(wantF), wantCalls)
					}
				}
			}
			filtered, _ := filterBySupport(cands, own, theta, 4, 21)
			wantE, wantCalls := refFuseCandidates(filtered, 7, theta/2)
			gotE, gotCalls := fuseCandidates(filtered, 7, theta/2)
			if gotCalls != wantCalls || !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("%s: fuseCandidates %d / %d SADs, scalar %d / %d", name, len(gotE), gotCalls, len(wantE), wantCalls)
			}
			labels, _ := labelBySAD(f, gotE)
			for p, l := range labels {
				if wantL, _ := spectralNearest(f.PixelAt(p), gotE); l != wantL {
					t.Fatalf("%s: pixel %d labelled %d, scalar scan %d", name, p, l, wantL)
				}
			}
		}
	}
}

// spectralNearest is the scalar argmin labelBySAD used to run per pixel.
func spectralNearest(pixel []float32, set [][]float32) (int, float64) {
	best, bestD := 0, spectral.SAD(pixel, set[0])
	for i := 1; i < len(set); i++ {
		if d := spectral.SAD(pixel, set[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// maxProjectionDense is the all-dense scan maxProjection replaced: every
// pixel goes through the dense kernel. Along the way it counts the pixels
// the filter, summing afresh, would have let skip the kernel against its
// best so far — the best maxProjection holds at that pixel too — and
// fails the test if one of them scored at or above that best.
func maxProjectionDense(t testing.TB, s *linalg.DenseScan, view *cube.Cube) (best int, bestScore float64, skippable int) {
	t.Helper()
	best, bestScore = -1, -1.0
	for p := 0; p < view.NumPixels(); p++ {
		score := s.Score(view.PixelAt(p))
		if s.Skip(view.PixelAt(p), new(linalg.FilterSum), bestScore) {
			skippable++
			if !(score < bestScore) {
				t.Fatalf("pixel %d scores %v but Skip(y, %v) let it skip the dense kernel", p, score, bestScore)
			}
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best, bestScore, skippable
}

// checkMaxProjection compares maxProjection with the all-dense scan:
// == on the index, Float64bits on the score. It returns the reference's
// winner and how many pixels skipped the dense kernel.
func checkMaxProjection(t testing.TB, name string, s *linalg.DenseScan, view *cube.Cube) (int, int) {
	t.Helper()
	wantI, wantS, skipped := maxProjectionDense(t, s, view)
	gotI, gotS := maxProjection(s, view, new(lineSums).rows(view, 0))
	if gotI != wantI || math.Float64bits(gotS) != math.Float64bits(wantS) {
		t.Fatalf("%s: maxProjection (%d, %v), all-dense scan (%d, %v)", name, gotI, gotS, wantI, wantS)
	}
	return wantI, skipped
}

// scanOf builds the round's projector scan from target signatures, or
// returns nil when they are linearly dependent.
func scanOf(sigs [][]float32) *linalg.DenseScan {
	u := linalg.NewMat(len(sigs), len(sigs[0]))
	for i, sig := range sigs {
		copy(u.Row(i), linalg.Widen(nil, sig))
	}
	proj, err := linalg.NewOSP(u)
	if err != nil {
		return nil
	}
	return proj.DenseScan()
}

func TestMaxProjectionMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for bands := 1; bands <= 70; bands++ {
		for tg := 1; tg <= min(bands, 12); tg++ {
			f := cube.MustNew(6, 5, bands)
			for i := range f.Data {
				f.Data[i] = rng.Float32()
			}
			sigs := make([][]float32, tg)
			for i := range sigs {
				sigs[i] = append([]float32(nil), f.PixelAt(rng.Intn(f.NumPixels()))...)
			}
			s := scanOf(sigs)
			if s == nil {
				continue
			}
			name := fmt.Sprintf("%d bands, %d targets", bands, tg)
			w, _ := checkMaxProjection(t, name, s, f)
			// An exact duplicate of the winner later on: the first index wins.
			last := f.NumPixels() - 1
			if w != last {
				copy(f.PixelAt(last), f.PixelAt(w))
				if got, _ := checkMaxProjection(t, name+", duplicate winner", s, f); got != w {
					t.Fatalf("%s: duplicate winner moved the pick from %d to %d", name, w, got)
				}
			}
			clear(f.PixelAt(4))
			checkMaxProjection(t, name+", zero pixel", s, f)
			poison(f, []int{9, 13, 17})
			f.PixelAt(21)[0] = float32(math.Inf(-1))
			checkMaxProjection(t, name+", NaN and ±Inf pixels", s, f)
			for p := 0; p < f.NumPixels(); p++ {
				copy(f.PixelAt(p), sigs[0])
				f.PixelAt(p)[0] += 0.5
			}
			if got, _ := checkMaxProjection(t, name+", constant scene", s, f); got != 0 {
				t.Fatalf("%s: constant scene picked pixel %d, want 0", name, got)
			}
		}
	}
}

// Two targets a float32 ulp or so apart: the projector and Q are both
// inaccurate, η is large (TestDenseScanEtaGrowsWhenTargetsNearlyCollinear
// in internal/linalg) and the scan must still match.
func TestMaxProjectionMatchesDenseNearlyCollinear(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	built := 0
	for trial := 0; trial < 40; trial++ {
		bands, tg := 8+rng.Intn(60), 2+rng.Intn(4)
		f := cube.MustNew(16, 8, bands)
		for i := range f.Data {
			f.Data[i] = 100 + 900*rng.Float32()
		}
		sigs := make([][]float32, tg)
		for i := range sigs {
			sigs[i] = append([]float32(nil), f.PixelAt(rng.Intn(f.NumPixels()))...)
		}
		for b := range sigs[1] {
			// A 1e-7 relative perturbation is one float32 ulp either way.
			sigs[1][b] = sigs[0][b] * (1 + 1e-7*float32(rng.Intn(3)-1))
		}
		if s := scanOf(sigs); s != nil {
			built++
			checkMaxProjection(t, fmt.Sprintf("trial %d", trial), s, f)
		}
	}
	if built < 20 {
		t.Fatalf("only %d of 40 nearly collinear target sets were invertible", built)
	}
}

// Pixels that differ by integer combinations of integer targets have the
// same exact projection, so their dense scores differ only by rounding.
// Every ordered pair of them a few ulps apart is a near-tie: the later,
// higher pixel must win exactly as in the all-dense scan.
func TestMaxProjectionMatchesDenseNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	nearTies := 0
	for trial := 0; trial < 20; trial++ {
		bands, tg := 8+rng.Intn(40), 1+rng.Intn(5)
		sigs := make([][]float32, tg)
		for i := range sigs {
			sigs[i] = make([]float32, bands)
			for b := range sigs[i] {
				sigs[i][b] = float32(1 + rng.Intn(16))
			}
		}
		s := scanOf(sigs)
		if s == nil {
			continue
		}
		const k = 48
		cloud := cube.MustNew(k, 1, bands)
		base := make([]float32, bands)
		for b := range base {
			base[b] = float32(rng.Intn(256))
		}
		scores := make([]float64, k)
		for v := 0; v < k; v++ {
			px := cloud.PixelAt(v)
			copy(px, base)
			for _, sig := range sigs {
				c := float32(rng.Intn(7) - 3)
				for b := range px {
					px[b] += c * sig[b]
				}
			}
			scores[v] = s.Score(px)
		}
		pair := cube.MustNew(2, 1, bands)
		for a := 0; a < k; a++ {
			for y := 0; y < k; y++ {
				if !(scores[a] < scores[y]) || scores[y]-scores[a] > 8*(math.Nextafter(scores[y], math.Inf(1))-scores[y]) {
					continue
				}
				nearTies++
				copy(pair.PixelAt(0), cloud.PixelAt(a))
				copy(pair.PixelAt(1), cloud.PixelAt(y))
				if got, _ := checkMaxProjection(t, fmt.Sprintf("trial %d pair (%d, %d)", trial, a, y), s, pair); got != 1 {
					t.Fatalf("trial %d: near-tie pair (%d, %d) picked %d", trial, a, y, got)
				}
			}
		}
	}
	if nearTies == 0 {
		t.Fatal("no near-tie within 8 ulps was generated")
	}
}

// atdcaRounds runs ATDCA for targets rounds on f, checking maxProjection
// against the all-dense scan in every round, and returns the number of
// pixel scores that skipped the dense kernel and the number scored.
func atdcaRounds(t *testing.T, f *cube.Cube, targets int) (skipped, scored int) {
	t.Helper()
	best, bestScore := 0, -1.0
	for p := 0; p < f.NumPixels(); p++ {
		if s := f.Brightness(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	sigs := [][]float32{f.PixelAt(best)}
	for len(sigs) < targets {
		s := scanOf(sigs)
		if s == nil {
			t.Fatalf("round %d: targets linearly dependent", len(sigs))
		}
		w, n := checkMaxProjection(t, fmt.Sprintf("%dx%dx%d round %d", f.Lines, f.Samples, f.Bands, len(sigs)), s, f)
		skipped, scored = skipped+n, scored+f.NumPixels()
		sigs = append(sigs, f.PixelAt(w))
	}
	return skipped, scored
}

func TestMaxProjectionMatchesDenseOnBenchScenes(t *testing.T) {
	for _, g := range []scene.Config{
		{Lines: 24, Samples: 16, Bands: 8, Seed: 1},
		{Lines: 64, Samples: 64, Bands: 32, Seed: 1},
		{Lines: 24, Samples: 16, Bands: 8, Seed: 7},
		{Lines: 64, Samples: 64, Bands: 32, Seed: 7},
	} {
		sc, err := scene.Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		atdcaRounds(t, sc.Cube, min(g.Bands, 8))
	}
}

// On the Table 5 scene nearly every pixel is provably below the best so
// far; a bound that silently got too loose shows up here first.
func TestMaxProjectionSkipsDenseKernel(t *testing.T) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	skipped, scored := atdcaRounds(t, sc.Cube, 8)
	t.Logf("%d of %d pixel scores skipped the dense kernel (%.1f%%)", skipped, scored, 100*float64(skipped)/float64(scored))
	if float64(skipped) < 0.9*float64(scored) {
		t.Fatalf("only %d of %d pixel scores skipped the dense kernel, want >= 90%%", skipped, scored)
	}
}

// carriedRounds runs ATDCA rounds from first over the lines of f with the
// filter sums carried in st, each round on a random set of line spans —
// so a line may sit a round out, or be scanned for the first time in a
// late round — and checks every span's pick against the all-dense scan.
// The next target is the all-dense winner of the whole scene.
func carriedRounds(t *testing.T, name string, rng *rand.Rand, f *cube.Cube, st *carried, first []float32, rounds int) {
	t.Helper()
	sigs := [][]float32{first}
	for len(sigs) <= rounds {
		var u uMatrix
		for _, sig := range sigs {
			u.rows = append(u.rows, linalg.Widen(nil, sig))
		}
		cr, err := projectionCriterion(u, f.Bands, f.Bands, st)
		if err != nil {
			t.Fatalf("%s, %d targets: %v", name, len(sigs), err)
		}
		s := scanOf(sigs)
		size := 1 + rng.Intn(6)
		for lo := 0; lo < f.Lines; lo += size {
			if rng.Intn(3) == 0 {
				continue
			}
			view, err := f.Rows(lo, min(lo+size, f.Lines))
			if err != nil {
				t.Fatal(err)
			}
			wantI, wantS, _ := maxProjectionDense(t, s, view)
			gotI, gotS, _ := cr.best(view, lo)
			if gotI != wantI || math.Float64bits(gotS) != math.Float64bits(wantS) {
				t.Fatalf("%s, %d targets, lines [%d,%d): carried scan (%d, %v), all-dense scan (%d, %v)",
					name, len(sigs), lo, lo+size, gotI, gotS, wantI, wantS)
			}
		}
		w, _, _ := maxProjectionDense(t, s, f)
		sigs = append(sigs, f.PixelAt(w))
	}
}

// With the sums a rank carries, maxProjection picks what the all-dense
// scan picks in every round: while the lines it scans change from round
// to round, and across a round whose Cholesky factorization fails, after
// which the targets start over and no sum of the old chain may survive.
func TestMaxProjectionCarriedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, g := range []scene.Config{
		{Lines: 24, Samples: 16, Bands: 8, Seed: 3},
		{Lines: 40, Samples: 24, Bands: 32, Seed: 1},
		{Lines: 32, Samples: 16, Bands: 64, Seed: 7},
	} {
		sc, err := scene.Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		f := sc.Cube
		name := fmt.Sprintf("%dx%dx%d", g.Lines, g.Samples, g.Bands)
		bright, bestB := 0, -1.0
		for p := 0; p < f.NumPixels(); p++ {
			if b := f.Brightness(p); b > bestB {
				bright, bestB = p, b
			}
		}
		var st carried
		carriedRounds(t, name, rng, f, &st, f.PixelAt(bright), min(g.Bands-1, 7))

		// A first target of norm ~1e-8 fails Cholesky's pivot floor, which
		// Gauss-Jordan, pivoting on the second target, passes: the round
		// has a projector and no filter.
		tiny := append([]float32(nil), f.PixelAt(5)...)
		for i := range tiny {
			tiny[i] *= 1e-8
		}
		other := f.PixelAt(f.NumPixels() - 7)
		if s := scanOf([][]float32{tiny, other}); s == nil || s.Filters() {
			t.Fatalf("%s: targets of norms 1e-8 and 1 did not make a Cholesky failure", name)
		}
		u := uMatrix{rows: [][]float64{linalg.Widen(nil, tiny), linalg.Widen(nil, other)}}
		cr, err := projectionCriterion(u, f.Bands, f.Bands, &st)
		if err != nil {
			t.Fatal(err)
		}
		wantI, wantS, _ := maxProjectionDense(t, scanOf([][]float32{tiny, other}), f)
		if gotI, gotS, _ := cr.best(f, 0); gotI != wantI || math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("%s, Cholesky failure: (%d, %v), all-dense scan (%d, %v)", name, gotI, gotS, wantI, wantS)
		}
		carriedRounds(t, name+" after the failure", rng, f, &st, f.PixelAt(f.NumPixels()/2), min(g.Bands-1, 7))
	}
}

// FuzzMaxProjectionMatchesDense decodes bands (1-70), a target count
// (1-min(bands, 12)) and float32 bit patterns — NaN, ±Inf and denormals
// all occur — cut into bands-long vectors: the first are the targets,
// the rest the pixels of the view.
func FuzzMaxProjectionMatchesDense(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64, 0, 0, 192, 64}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, bands, targets uint8) {
		n := int(bands%70) + 1
		tg := int(targets)%min(n, 12) + 1
		var vecs [][]float32
		for len(data) >= 4*n {
			v := make([]float32, n)
			for i := range v {
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
			vecs, data = append(vecs, v), data[4*n:]
		}
		if len(vecs) <= tg {
			return
		}
		s := scanOf(vecs[:tg])
		if s == nil {
			return
		}
		view := cube.MustNew(len(vecs)-tg, 1, n)
		for p, v := range vecs[tg:] {
			copy(view.PixelAt(p), v)
		}
		checkMaxProjection(t, "fuzz", s, view)
	})
}

// refPruneReps is pruneReps with the nearest kept representative found
// by a loop over the scalar spectral.SAD.
func refPruneReps(reps []rep, minCount int) ([]rep, int) {
	if len(reps) == 0 {
		return reps, 0
	}
	var kept, small []rep
	for _, r := range reps {
		if r.count >= minCount {
			kept = append(kept, r)
		} else {
			small = append(small, r)
		}
	}
	if len(kept) == 0 {
		best := 0
		for i := range reps {
			if reps[i].count > reps[best].count {
				best = i
			}
		}
		kept = []rep{reps[best]}
		small = append(reps[:best:best], reps[best+1:]...)
	}
	sadCalls := 0
	for _, s := range small {
		nearest, nearestD := 0, spectral.SAD(s.sig, kept[0].sig)
		sadCalls++
		for i := 1; i < len(kept); i++ {
			d := spectral.SAD(s.sig, kept[i].sig)
			sadCalls++
			if d < nearestD {
				nearest, nearestD = i, d
			}
		}
		kept[nearest].count += s.count
	}
	return kept, sadCalls
}

// TestPruneRepsMatchesReference compares pruneReps with the scalar loop
// on random sets, on sets whose kept representatives tie (copies scaled by powers of two
// and zero vectors are equidistant from everything), and on sets where
// only the largest group survives.
func TestPruneRepsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const bands = 20
	random := func() []float32 {
		v := make([]float32, bands)
		for i := range v {
			v[i] = rng.Float32()
		}
		return v
	}
	scaled := func(v []float32, k float32) []float32 {
		out := make([]float32, len(v))
		for i, x := range v {
			out[i] = k * x
		}
		return out
	}
	check := func(name string, reps []rep, minCount int) {
		t.Helper()
		got, gotCalls := pruneReps(reps, minCount)
		want, wantCalls := refPruneReps(reps, minCount)
		if gotCalls != wantCalls {
			t.Errorf("%s: %d SADs charged, reference %d", name, gotCalls, wantCalls)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kept %v, reference %v", name, got, want)
		}
	}

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		reps := make([]rep, n)
		for i := range reps {
			reps[i] = rep{sig: random(), count: 1 + rng.Intn(30)}
		}
		check(fmt.Sprintf("random %d", trial), reps, 1+rng.Intn(30))
	}

	base, other := random(), random()
	zero := make([]float32, bands)
	check("ties between scaled copies", []rep{
		{sig: other, count: 50}, {sig: base, count: 50}, {sig: scaled(base, 4), count: 50},
		{sig: scaled(base, 0.5), count: 2}, {sig: scaled(other, 2), count: 1},
	}, 10)
	check("zero vectors", []rep{
		{sig: base, count: 40}, {sig: zero, count: 40}, {sig: other, count: 40},
		{sig: zero, count: 3}, {sig: scaled(other, 7), count: 1},
	}, 10)
	check("zero vector is every kept one's tie", []rep{
		{sig: base, count: 40}, {sig: other, count: 40}, {sig: zero, count: 3},
	}, 10)
	check("single kept representative", []rep{
		{sig: base, count: 5}, {sig: other, count: 9}, {sig: zero, count: 1}, {sig: random(), count: 9},
	}, 100)
	check("one representative", []rep{{sig: base, count: 1}}, 100)
}
