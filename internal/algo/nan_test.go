package algo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cube"
)

// poison overwrites a handful of pixels with non-finite samples: the
// kind of garbage a dropped calibration frame or a dead detector column
// injects into a real scene.
func poison(f *cube.Cube, pixels []int) {
	for k, p := range pixels {
		px := f.PixelAt(p)
		switch k % 3 {
		case 0:
			px[0] = float32(math.NaN())
		case 1:
			for b := range px {
				px[b] = float32(math.NaN())
			}
		case 2:
			px[len(px)-1] = float32(math.Inf(1))
		}
	}
}

// Regression: SAD used to return NaN for non-finite pixels, and NaN
// comparing false against everything made argmin scans keep garbage.
// A few corrupt pixels must not change any clean pixel's label, and
// every label — corrupt pixels included — must stay in range.
func TestLabelBySADNaNPixelsContained(t *testing.T) {
	f, truth := materialsCube(16, 8, 12, 3)
	bad := []int{0, 37, 100}
	poison(f, bad)
	sigs := make([][]float32, 3)
	for m := range sigs {
		// Representative pixel of each stripe (rows are striped by l*k/lines).
		sigs[m] = f.PixelAt((m*16/3 + 1) * 8)
	}
	labels, _ := labelBySAD(f, sigs)
	badSet := map[int]bool{}
	for _, p := range bad {
		badSet[p] = true
	}
	for p, l := range labels {
		if l < 0 || l >= len(sigs) {
			t.Fatalf("pixel %d: label %d out of range", p, l)
		}
		if !badSet[p] && l != truth[p] {
			t.Errorf("clean pixel %d mislabeled %d (want %d) — NaN leak", p, l, truth[p])
		}
	}
	// Fully-NaN pixel 37 is maximally dissimilar to everything: the
	// argmin must settle deterministically on the first signature.
	if labels[37] != 0 {
		t.Errorf("all-NaN pixel labeled %d, want deterministic 0", labels[37])
	}
}

func TestClassifyReducedVectorsNaNContained(t *testing.T) {
	reps := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	reduced := [][]float64{
		{0.9, 0.1, 0},
		{math.NaN(), 5, 2},
		{0, 0.2, 0.9},
		{math.Inf(1), math.Inf(1), math.Inf(1)},
	}
	labels, _ := classifyReducedVectors(reduced, reps, 3)
	if labels[0] != 0 || labels[2] != 2 {
		t.Errorf("clean vectors mislabeled: %v", labels)
	}
	for p, l := range labels {
		if l < 0 || l >= len(reps) {
			t.Fatalf("vector %d: label %d out of range", p, l)
		}
	}
	// Non-finite vectors are pi from every representative; ties keep
	// the first, so the result is deterministic.
	if labels[1] != 0 || labels[3] != 0 {
		t.Errorf("non-finite vectors labeled %d/%d, want deterministic 0", labels[1], labels[3])
	}
}

// End-to-end: both classifiers must survive a scene with corrupt pixels
// — valid labels everywhere and high accuracy on the clean majority.
func TestClassifiersSurviveNaNScene(t *testing.T) {
	check := func(t *testing.T, res *ClassificationResult, truth []int, k int) {
		t.Helper()
		for p, l := range res.Labels {
			if l < 0 || l >= len(res.Classes) {
				t.Fatalf("pixel %d: label %d out of range [0,%d)", p, l, len(res.Classes))
			}
		}
		if acc := labelAgreement(res.Labels, truth, k); acc < 0.9 {
			t.Errorf("accuracy %.2f with 3 corrupt pixels, want > 0.9", acc)
		}
		for _, sig := range res.Classes {
			for _, v := range sig {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatal("non-finite class signature — NaN leaked into endmembers")
				}
			}
		}
	}
	t.Run("morph", func(t *testing.T) {
		f, truth := materialsCube(24, 12, 16, 3)
		poison(f, []int{5, 77, 200})
		res, err := MorphSequential(f, MorphParams{Classes: 3, Iterations: 2, Radius: 1, Theta: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, truth, 3)
	})
	t.Run("pct", func(t *testing.T) {
		f, truth := materialsCube(24, 12, 16, 3)
		poison(f, []int{5, 77, 200})
		res, err := PCTSequential(f, PCTParams{Classes: 3, Theta: 0.1, MaxReps: 32})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, truth, 3)
	})
}

// Regression: a NaN score never beats the running maximum, so a span
// whose every pixel is corrupt has no champion — and the span scans used
// to index pixel -1. Such a span must simply propose nothing: a stripe
// covering one rank's whole share (and several whole guided chunks)
// leaves the detections equal to the sequential run's, and a scene with
// no finite pixel at all is an error, not a crash.
func TestDetectorsSurviveNaNSpans(t *testing.T) {
	net := testNet(t, 3)
	nanLines := func(f *cube.Cube, lines int) *cube.Cube {
		g := f.Clone()
		for i := range g.Data[:lines*g.Samples*g.Bands] {
			g.Data[i] = float32(math.NaN())
		}
		return g
	}
	sequential := map[string]func(*cube.Cube, int) (*DetectionResult, error){
		ckptATDCA: ATDCASequential, ckptUFCLS: UFCLSSequential,
	}
	scene := testScene(t).Cube
	stripe := nanLines(scene, scene.Lines/net.Size())
	blank := nanLines(scene, scene.Lines)
	for alg, seq := range sequential {
		want, err := seq(stripe, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range testSchedules {
			got, _, _, err := runScheduled(t, net, stripe, alg, sch, nil)
			if err != nil {
				t.Errorf("%s/%s: NaN stripe: %v", alg, sch.name, err)
			} else if !sameTargets(want.Targets, got.(*DetectionResult).Targets) {
				t.Errorf("%s/%s: NaN stripe changed the detections", alg, sch.name)
			}
			_, _, _, err = runScheduled(t, net, blank, alg, sch, nil)
			if err == nil || !strings.Contains(err.Error(), "finite score") {
				t.Errorf("%s/%s: all-NaN scene: error %v, want the no-finite-score error", alg, sch.name, err)
			}
		}
	}
}
