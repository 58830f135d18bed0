package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestConfusionPerfect(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{5, 5, 6, 6, 7, 7} // permuted labels
	cm, err := Confusion(truth, 3, pred)
	if err != nil {
		t.Fatal(err)
	}
	if cm.OverallAccuracy() != 1 {
		t.Errorf("overall = %v", cm.OverallAccuracy())
	}
	if k := cm.Kappa(); math.Abs(k-1) > 1e-9 {
		t.Errorf("kappa = %v, want 1", k)
	}
	if cm.Total() != 6 {
		t.Errorf("total %d", cm.Total())
	}
}

func TestConfusionPartial(t *testing.T) {
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1}
	pred := []int{0, 0, 0, 1, 1, 1, 1, 1}
	cm, err := Confusion(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Truth 0: 3 right, 1 as class 1. Truth 1: all right.
	if cm.Counts[0][0] != 3 || cm.Counts[0][1] != 1 || cm.Counts[1][1] != 4 {
		t.Errorf("counts = %v", cm.Counts)
	}
	// Hand-computed kappa: po=7/8, pe=(4*3 + 4*5)/64 = 0.5.
	want := (7.0/8.0 - 0.5) / 0.5
	if k := cm.Kappa(); math.Abs(k-want) > 1e-9 {
		t.Errorf("kappa = %v, want %v", k, want)
	}
}

func TestConfusionChanceLevelKappa(t *testing.T) {
	// Predictions independent of truth: kappa ~ 0.
	truth := []int{0, 0, 1, 1, 0, 0, 1, 1}
	pred := []int{0, 1, 0, 1, 0, 1, 0, 1}
	cm, err := Confusion(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	if k := cm.Kappa(); math.Abs(k) > 1e-9 {
		t.Errorf("kappa = %v, want ~0", k)
	}
}

func TestConfusionIgnoresBackground(t *testing.T) {
	truth := []int{-1, -1, 0, 1}
	pred := []int{3, 4, 0, 1}
	cm, err := Confusion(truth, 2, pred)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 2 {
		t.Errorf("total %d, want 2", cm.Total())
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := Confusion([]int{0}, 1, []int{0, 1}); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := Confusion([]int{-1}, 1, []int{0}); err == nil {
		t.Error("no truth: expected error")
	}
}

func TestConfusionString(t *testing.T) {
	cm, err := Confusion([]int{0, 1}, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := cm.String()
	for _, want := range []string{"confusion", "overall", "kappa"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestConfusionEmptyMatrixSafe(t *testing.T) {
	cm := &ConfusionMatrix{Classes: 2, Counts: [][]int{{0, 0}, {0, 0}}}
	if cm.OverallAccuracy() != 0 || cm.Kappa() != 0 {
		t.Error("empty matrix should report zeros, not NaN")
	}
}
