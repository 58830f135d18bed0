package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// refConfusion is the truth-major confusion matrix of pred against truth
// under mapping, built pixel by pixel: a pixel whose predicted label has
// no mapping lands in no cell.
func refConfusion(truth []int, numClasses int, pred []int, mapping map[int]int) [][]int {
	counts := make([][]int, numClasses)
	for i := range counts {
		counts[i] = make([]int, numClasses)
	}
	for i, tc := range truth {
		if tc < 0 {
			continue
		}
		if mapped, ok := mapping[pred[i]]; ok {
			counts[tc][mapped]++
		}
	}
	return counts
}

// refKappa is Cohen's kappa of a confusion matrix in its textbook
// arrangement — overall accuracy over the matrix total, then the chance
// agreement from row and column totals — the reference
// Accuracy.Kappa must match bit for bit.
func refKappa(counts [][]int) float64 {
	classes := len(counts)
	var n int
	for _, row := range counts {
		for _, c := range row {
			n += c
		}
	}
	total := float64(n)
	if total == 0 {
		return 0
	}
	var diag int
	for k := 0; k < classes; k++ {
		diag += counts[k][k]
	}
	po := float64(diag) / float64(n)
	var pe float64
	for k := 0; k < classes; k++ {
		var rowTotal, colTotal float64
		for j := 0; j < classes; j++ {
			rowTotal += float64(counts[k][j])
			colTotal += float64(counts[j][k])
		}
		pe += (rowTotal / total) * (colTotal / total)
	}
	if pe >= 1 {
		return 0
	}
	return (po - pe) / (1 - pe)
}

// TestKappaMatchesReference scores random label sets — with background
// pixels, more predicted labels than classes (so some stay unmapped), a
// single class, and no truth at all — and requires Classification's
// kappa to equal the reference's exactly.
func TestKappaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	unmapped := 0
	for trial := 0; trial < 3000; trial++ {
		classes := 1 + rng.Intn(6)
		labels := classes + rng.Intn(4) // extra labels stay unmapped
		n := rng.Intn(80)
		truth, pred := make([]int, n), make([]int, n)
		background := rng.Float64() * 0.3
		if trial%50 == 0 {
			background = 1 // empty: every pixel unlabeled
		}
		for i := range truth {
			truth[i] = rng.Intn(classes)
			if rng.Float64() < background {
				truth[i] = -1
			}
			pred[i] = rng.Intn(labels) - rng.Intn(2) // includes label -1
		}
		acc, err := Classification(truth, classes, pred)
		counts := refConfusion(truth, classes, pred, acc.Mapping)
		want := refKappa(counts)
		if err != nil {
			// No ground truth: no matrix, and no kappa.
			if acc.Kappa != 0 || want != 0 {
				t.Fatalf("trial %d: error %v with kappa %v, reference %v", trial, err, acc.Kappa, want)
			}
			continue
		}
		if acc.Kappa != want {
			t.Fatalf("trial %d (%d classes, %d labels): kappa %v, reference %v\ntruth %v\npred %v",
				trial, classes, labels, acc.Kappa, want, truth, pred)
		}
		labeled := 0
		for _, tc := range truth {
			if tc >= 0 {
				labeled++
			}
		}
		var inMatrix int
		for _, row := range counts {
			for _, c := range row {
				inMatrix += c
			}
		}
		if inMatrix < labeled {
			unmapped++
		}
	}
	// The mapped total must differ from the truth total often enough for
	// the comparison to tell them apart.
	if unmapped < 500 {
		t.Fatalf("only %d trials left pixels unmapped", unmapped)
	}
}

func TestConfusionPerfect(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{5, 5, 6, 6, 7, 7} // permuted labels
	acc, err := Classification(truth, 3, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Overall != 1 {
		t.Errorf("overall = %v", acc.Overall)
	}
	if math.Abs(acc.Kappa-1) > 1e-9 {
		t.Errorf("kappa = %v, want 1", acc.Kappa)
	}
}

func TestConfusionPartial(t *testing.T) {
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1}
	pred := []int{0, 0, 0, 1, 1, 1, 1, 1}
	acc, err := Classification(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Truth 0: 3 right, 1 as class 1. Truth 1: all right.
	// Hand-computed kappa: po=7/8, pe=(4*3 + 4*5)/64 = 0.5.
	want := (7.0/8.0 - 0.5) / 0.5
	if math.Abs(acc.Kappa-want) > 1e-9 {
		t.Errorf("kappa = %v, want %v", acc.Kappa, want)
	}
}

func TestConfusionChanceLevelKappa(t *testing.T) {
	// Predictions independent of truth: kappa ~ 0.
	truth := []int{0, 0, 1, 1, 0, 0, 1, 1}
	pred := []int{0, 1, 0, 1, 0, 1, 0, 1}
	acc, err := Classification(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc.Kappa) > 1e-9 {
		t.Errorf("kappa = %v, want ~0", acc.Kappa)
	}
}

func TestConfusionIgnoresBackground(t *testing.T) {
	// The two unlabeled pixels carry labels of their own; counted, they
	// would pull kappa below 1.
	truth := []int{-1, -1, 0, 1}
	pred := []int{1, 0, 0, 1}
	acc, err := Classification(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Overall != 1 || acc.Kappa != 1 {
		t.Errorf("overall %v, kappa %v; want 1 and 1", acc.Overall, acc.Kappa)
	}
}

func TestConfusionEmptyMatrixSafe(t *testing.T) {
	if k := kappa([][]int{{0, 0}, {0, 0}}); k != 0 {
		t.Errorf("empty matrix kappa %v, want 0 (not NaN)", k)
	}
	// Every pixel unlabeled: Classification refuses, with a zero kappa.
	if acc, err := Classification([]int{-1, -1}, 2, []int{0, 1}); err == nil || acc.Kappa != 0 {
		t.Errorf("no ground truth: err %v, kappa %v", err, acc.Kappa)
	}
}

func TestConfusionErrors(t *testing.T) {
	// A length mismatch and a scene with no ground truth are refused,
	// and neither reports a kappa.
	if acc, err := Classification([]int{0}, 1, []int{0, 1}); err == nil || acc.Kappa != 0 {
		t.Errorf("length mismatch: err %v, kappa %v", err, acc.Kappa)
	}
	if acc, err := Classification([]int{-1}, 1, []int{0}); err == nil || acc.Kappa != 0 {
		t.Errorf("no truth: err %v, kappa %v", err, acc.Kappa)
	}
}
