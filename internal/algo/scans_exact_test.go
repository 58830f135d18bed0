package algo

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cube"
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

func TestMorphScansMatchScalarScans(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := exactScene(t, 32, 24, 16, seed)
		res := morph.MEI(f, morph.Square(1), 2)
		for _, theta := range []float64{0.06, 0.02, 0.3} {
			name := fmt.Sprintf("seed %d theta %v", seed, theta)
			want, wantCalls := refSelectCandidates(res.Final, res.Scores, 2, 30, 42, theta)
			cands, calls := selectCandidates(res.Final, res.Scores, 2, 30, 42, theta)
			if calls != wantCalls || !reflect.DeepEqual(cands, want) {
				t.Fatalf("%s: selectCandidates %d / %d SADs, scalar %d / %d", name, len(cands), calls, len(want), wantCalls)
			}
			own, err := f.Rows(2, 30)
			if err != nil {
				t.Fatal(err)
			}
			// Caps of 1, 5 and 21 stop the walk inside, at the end of and
			// beyond a block of four; a floor of 1000 rejects everything.
			for _, cap := range []int{1, 5, 21} {
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
