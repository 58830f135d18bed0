package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/scene"
	"repro/internal/spectral"
)

// maxErrorFull is the all-solve scan maxErrorScan replaced: every pixel
// of f is unmixed. Along the way it checks the skip rule against the
// bounds maxErrorScan is about to see, under the serial best so far (at
// least the best of any chunk): a pixel the rule lets skip must not score
// above that best. It also counts the solves of finite pixels that left
// no bound, i.e. hit the iteration cap: the derivation of the slack does
// not cover them, so the check above is all that vouches for them.
func maxErrorFull(t testing.TB, f *cube.Cube, u uMatrix, bounds [][]float64) (best int, bestScore float64, capped int, err error) {
	t.Helper()
	solver := linalg.NewFCLSSolver(ufclsEndmemberMat(u, f.Bands))
	best, bestScore = -1, -1.0
	for p := 0; p < f.NumPixels(); p++ {
		err2, j, err := solver.UnmixBound(f.PixelAt(p))
		if err != nil {
			return 0, 0, 0, err
		}
		if b := bounds[p/f.Samples][p%f.Samples]; b < bestScore-solver.BoundSlack(bestScore) && !(err2 <= bestScore) {
			t.Fatalf("pixel %d scores %v above the best %v, but its bound %v let it skip", p, err2, bestScore, b)
		}
		if math.IsNaN(j) && spectral.Finite(f.PixelAt(p)) {
			capped++
		}
		if err2 > bestScore {
			best, bestScore = p, err2
		}
	}
	return best, bestScore, capped, nil
}

// checkMaxError runs maxErrorScan over bounds and the all-solve scan over
// a copy of them: == on the index, Float64bits on the score, an error
// from both or neither. It returns the winner, the solves maxErrorScan
// made and the capped solves of the reference.
func checkMaxError(t testing.TB, name string, f *cube.Cube, u uMatrix, bounds [][]float64) (winner, solves, capped int) {
	t.Helper()
	before := make([][]float64, len(bounds))
	for i, row := range bounds {
		before[i] = append([]float64(nil), row...)
	}
	wantI, wantS, capped, wantErr := maxErrorFull(t, f, u, before)
	gotI, gotS, solves, gotErr := maxErrorScan(f, u, f.Bands, bounds)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: maxErrorScan error %v, all-solve scan error %v", name, gotErr, wantErr)
	}
	if gotI != wantI || math.Float64bits(gotS) != math.Float64bits(wantS) {
		t.Fatalf("%s: maxErrorScan (%d, %v), all-solve scan (%d, %v)", name, gotI, gotS, wantI, wantS)
	}
	return wantI, solves, capped
}

// errorRounds scans f with targets sigs[:1], sigs[:2], ... over one bound
// store, checking every round, and returns the last round's winner.
func errorRounds(t testing.TB, name string, f *cube.Cube, sigs [][]float32) int {
	t.Helper()
	var bounds lineBounds
	var u uMatrix
	w := -1
	for k, sig := range sigs {
		u.rows = append(u.rows, linalg.Widen(nil, sig))
		w, _, _ = checkMaxError(t, fmt.Sprintf("%s, %d targets", name, k+1), f, u, bounds.rows(f, 0))
	}
	return w
}

func TestMaxErrorScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for bands := 1; bands <= 40; bands += 3 {
		for tg := 1; tg <= min(bands, 10); tg++ {
			f := cube.MustNew(6, 5, bands)
			scale := float32(math.Pow(10, float64(rng.Intn(5)-2)))
			for i := range f.Data {
				f.Data[i] = scale * rng.Float32()
			}
			sigs := make([][]float32, tg)
			for i := range sigs {
				sigs[i] = append([]float32(nil), f.PixelAt(rng.Intn(f.NumPixels()))...)
			}
			name := fmt.Sprintf("%d bands, %d targets", bands, tg)
			w := errorRounds(t, name, f, sigs)
			// An exact duplicate of the winner later on: the first index wins.
			if last := f.NumPixels() - 1; w >= 0 && w != last {
				copy(f.PixelAt(last), f.PixelAt(w))
				if got := errorRounds(t, name+", duplicate winner", f, sigs); got != w {
					t.Fatalf("%s: duplicate winner moved the pick from %d to %d", name, w, got)
				}
			}
			clear(f.PixelAt(4))
			errorRounds(t, name+", zero pixel", f, sigs)
			poison(f, []int{9, 13, 17})
			f.PixelAt(21)[0] = float32(math.Inf(-1))
			errorRounds(t, name+", NaN and ±Inf pixels", f, sigs)
		}
	}
}

// Pixel 1 is a mixture of the first two targets plus a residual the third
// cannot reach, so its solve — err2 and J both — is the same in rounds 2
// and 3. Pixel 0 has a residual one float32 ulp shorter: it scores less
// than pixel 1 by far less than the slack, so in round 3 only a solve
// finds pixel 1 the winner.
func TestMaxErrorScanMatchesFullScanNearTies(t *testing.T) {
	for _, scale := range []float32{0.01, 1, 30} {
		f := cube.MustNew(2, 1, 4)
		copy(f.PixelAt(0), []float32{scale / 2, scale / 2, 0, 1 - 0x1p-24})
		copy(f.PixelAt(1), []float32{scale / 2, scale / 2, 0, 1})
		sigs := [][]float32{{scale, 0, 0, 0}, {0, scale, 0, 0}, {scale, scale, scale, 0}}
		if w := errorRounds(t, fmt.Sprintf("scale %v", scale), f, sigs); w != 1 {
			t.Fatalf("scale %v: round 3 picked pixel %d, want the near-tie winner 1", scale, w)
		}
	}
}

// Pixel 1, three times the first target, is reconstructed with a large
// sum-to-one penalty in round 1; the second target trades that penalty
// for a larger error (400 -> 489). Pixel 0 scores 444 in both rounds, so
// a bound that stored round 1's error instead of J (2000) would skip the
// winner of round 2.
func TestMaxErrorScanMatchesFullScanWhenErrorRises(t *testing.T) {
	f := cube.MustNew(2, 1, 3)
	copy(f.PixelAt(0), []float32{50, 0, float32(math.Sqrt(444))})
	copy(f.PixelAt(1), []float32{150, 0, 0})
	sigs := [][]float32{{50, 0, 0}, {150, float32(math.Sqrt(1000)), 0}}
	if w := errorRounds(t, "error rises", f, sigs); w != 1 {
		t.Fatalf("round 2 picked pixel %d, want 1", w)
	}
}

// ufclsRounds runs UFCLS for targets rounds on f, checking maxErrorScan
// against the all-solve scan in every round. It returns the solves of
// each scan round and the reference's capped solves.
func ufclsRounds(t testing.TB, f *cube.Cube, targets int) (solves []int, capped int) {
	t.Helper()
	best, bestScore := 0, -1.0
	for p := 0; p < f.NumPixels(); p++ {
		if s := f.Brightness(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	var bounds lineBounds
	u := uMatrix{rows: [][]float64{linalg.Widen(nil, f.PixelAt(best))}}
	for len(u.rows) < targets {
		name := fmt.Sprintf("%dx%dx%d round %d", f.Lines, f.Samples, f.Bands, len(u.rows))
		w, n, c := checkMaxError(t, name, f, u, bounds.rows(f, 0))
		solves, capped = append(solves, n), capped+c
		u.rows = append(u.rows, linalg.Widen(nil, f.PixelAt(w)))
	}
	return solves, capped
}

func TestMaxErrorScanMatchesFullScanOnBenchScenes(t *testing.T) {
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
		_, capped := ufclsRounds(t, sc.Cube, 8)
		t.Logf("%dx%dx%d seed %d: %d solves hit the iteration cap", g.Lines, g.Samples, g.Bands, g.Seed, capped)
	}
}

// On the Table 5 scene most pixels are provably below their chunk's best
// in every round after the first scan; a bound or slack that silently got
// too loose shows up here first.
func TestMaxErrorScanSkipsFCLS(t *testing.T) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	solves, capped := ufclsRounds(t, sc.Cube, 18)
	t.Logf("%d solves hit the iteration cap", capped)
	for _, tc := range []struct {
		targets int
		want    float64
	}{{8, 0.55}, {18, 0.75}} {
		n, scored := 0, 0
		for _, s := range solves[:tc.targets-1] {
			n, scored = n+s, scored+sc.Cube.NumPixels()
		}
		share := 1 - float64(n)/float64(scored)
		t.Logf("t = %d: %d of %d pixel scores skipped the FCLS solve (%.1f%%)", tc.targets, scored-n, scored, 100*share)
		if share < tc.want {
			t.Errorf("t = %d: skipped %.1f%% of FCLS solves, want >= %.0f%%", tc.targets, 100*share, 100*tc.want)
		}
	}
}

// FuzzMaxErrorScanMatchesFullScan decodes bands (1-24), a target count
// (1-min(bands, 8)) and float32 bit patterns — NaN, ±Inf and denormals
// all occur — cut into bands-long vectors: the first are the targets,
// the rest the pixels of the view, scanned once per target prefix.
func FuzzMaxErrorScanMatchesFullScan(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64, 0, 0, 192, 64}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, bands, targets uint8) {
		n := int(bands%24) + 1
		tg := int(targets)%min(n, 8) + 1
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
		view := cube.MustNew(len(vecs)-tg, 1, n)
		for p, v := range vecs[tg:] {
			copy(view.PixelAt(p), v)
		}
		errorRounds(t, "fuzz", view, vecs[:tg])
	})
}

// A rank's bounds follow the scene's lines, not its views: chunks whose
// boundaries shift every round, as guided chunks of the balanced schedule
// do, must each find what the all-solve scan of the chunk finds.
func TestMaxErrorScanBoundsFollowGlobalLines(t *testing.T) {
	sc, err := scene.Generate(scene.Config{Lines: 64, Samples: 16, Bands: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Cube
	seq, err := UFCLSSequential(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	var st carried
	var u uMatrix
	for round, tg := range seq.Targets[:7] {
		u.rows = append(u.rows, linalg.Widen(nil, tg.Signature))
		cr, err := errorCriterion(u, f.Bands, f.Bands, &st)
		if err != nil {
			t.Fatal(err)
		}
		size := 5 + round%4
		for lo := 0; lo < f.Lines; lo += size {
			view, err := f.Rows(lo, min(lo+size, f.Lines))
			if err != nil {
				t.Fatal(err)
			}
			var none lineBounds
			wantI, wantS, _, _ := maxErrorFull(t, view, u, none.rows(view, 0))
			gotI, gotS, err := cr.best(view, lo)
			if err != nil || gotI != wantI || math.Float64bits(gotS) != math.Float64bits(wantS) {
				t.Fatalf("round %d lines [%d,%d): best (%d, %v, %v), all-solve scan (%d, %v)",
					round+1, lo, lo+size, gotI, gotS, err, wantI, wantS)
			}
		}
	}
}
