// Package metrics scores algorithm outputs against ground truth and
// computes the parallel-performance figures the paper's tables report:
// spectral similarity of detected targets (Table 3), per-class
// classification accuracy and kappa (Table 4), load-imbalance ratios
// (Table 7) and speedups (Fig. 2).
package metrics

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/scene"
	"repro/internal/spectral"
)

// DetectionScores returns, for every hot spot label, the SAD between the
// pixel vector at the known target position and the most similar detected
// target — exactly the Table 3 measure. Lower is better; 0 means a
// detected target landed on (or is spectrally identical to) the truth.
func DetectionScores(sc *scene.Scene, det *algo.DetectionResult) map[string]float64 {
	out := make(map[string]float64, len(sc.Truth.HotSpots))
	for _, h := range sc.Truth.HotSpots {
		truthPixel := sc.Cube.Pixel(h.Line, h.Sample)
		best := math.Inf(1)
		for _, tg := range det.Targets {
			if d := spectral.SAD(tg.Signature, truthPixel); d < best {
				best = d
			}
		}
		out[h.Label] = best
	}
	return out
}

// Accuracy reports classification quality against a ground-truth class
// map under the best greedy one-to-one mapping between predicted cluster
// labels and truth classes (unsupervised classifiers emit arbitrary label
// identities).
type Accuracy struct {
	// PerClass[k] is the fraction of truth-class-k pixels correctly
	// labeled, in truth-class order.
	PerClass []float64
	// Overall is the fraction of all ground-truth pixels correctly
	// labeled.
	Overall float64
	// Mapping sends predicted labels to truth classes.
	Mapping map[int]int
	// Kappa is Cohen's kappa, (po - pe) / (1 - pe): agreement beyond
	// chance over the pixels whose predicted label is mapped. 1 is
	// perfect, 0 chance-level.
	Kappa float64
}

// Classification scores predicted labels against the ground-truth map
// (entries < 0 are unlabeled and ignored). numClasses is the number of
// truth classes.
func Classification(truth []int, numClasses int, pred []int) (Accuracy, error) {
	if len(truth) != len(pred) {
		return Accuracy{}, fmt.Errorf("metrics: %d predictions for %d truth pixels", len(pred), len(truth))
	}
	// Contingency counts pred-label x truth-class.
	counts := map[[2]int]int{}
	classTotals := make([]int, numClasses)
	total := 0
	for i, tc := range truth {
		if tc < 0 {
			continue
		}
		if tc >= numClasses {
			return Accuracy{}, fmt.Errorf("metrics: truth class %d out of range", tc)
		}
		counts[[2]int{pred[i], tc}]++
		classTotals[tc]++
		total++
	}
	if total == 0 {
		return Accuracy{}, fmt.Errorf("metrics: no ground-truth pixels")
	}
	// Greedy one-to-one assignment by descending overlap. Ties are
	// broken by (pred label, truth class) order: map iteration order is
	// randomized, and letting it pick among equal overlaps made kappa —
	// which depends on the off-diagonal placement the mapping induces —
	// differ between identical runs.
	mapping := map[int]int{}
	usedTruth := map[int]bool{}
	for len(mapping) < numClasses {
		bestC, bp, bt := -1, 0, 0
		for key, c := range counts {
			if _, done := mapping[key[0]]; done || usedTruth[key[1]] {
				continue
			}
			better := c > bestC ||
				(c == bestC && (key[0] < bp || (key[0] == bp && key[1] < bt)))
			if better {
				bestC, bp, bt = c, key[0], key[1]
			}
		}
		if bestC < 0 {
			break
		}
		mapping[bp] = bt
		usedTruth[bt] = true
	}
	// cells[t][m] counts the truth-class-t pixels whose predicted label
	// maps to class m; a pixel with an unmapped label is in no cell.
	cells := make([][]int, numClasses)
	for t := range cells {
		cells[t] = make([]int, numClasses)
	}
	for key, c := range counts {
		if m, ok := mapping[key[0]]; ok {
			cells[key[1]][m] += c
		}
	}
	acc := Accuracy{PerClass: make([]float64, numClasses), Mapping: mapping, Kappa: kappa(cells)}
	totalCorrect := 0
	for k := 0; k < numClasses; k++ {
		totalCorrect += cells[k][k]
		if classTotals[k] > 0 {
			acc.PerClass[k] = float64(cells[k][k]) / float64(classTotals[k])
		}
	}
	acc.Overall = float64(totalCorrect) / float64(total)
	return acc, nil
}

// kappa returns Cohen's kappa of the truth-major counts cells, or 0 when
// they are empty or agreement by chance is certain.
func kappa(cells [][]int) float64 {
	var n, diag int
	for k, row := range cells {
		for _, c := range row {
			n += c
		}
		diag += row[k]
	}
	if n == 0 {
		return 0
	}
	total := float64(n)
	po := float64(diag) / total
	var pe float64
	for k := range cells {
		var rowTotal, colTotal float64
		for j := range cells {
			rowTotal += float64(cells[k][j])
			colTotal += float64(cells[j][k])
		}
		pe += (rowTotal / total) * (colTotal / total)
	}
	if pe >= 1 {
		return 0
	}
	return (po - pe) / (1 - pe)
}

// Imbalance returns the load-balancing rates of Table 7 for the given
// per-processor run times: D_all = Rmax/Rmin over all processors, and
// D_minus, the same ratio with the root (index 0) excluded. Perfect
// balance gives 1.
func Imbalance(times []float64) (dAll, dMinus float64, err error) {
	if len(times) < 2 {
		return 0, 0, fmt.Errorf("metrics: imbalance needs at least 2 processors, got %d", len(times))
	}
	ratio := func(ts []float64) (float64, error) {
		min, max := math.Inf(1), math.Inf(-1)
		for _, t := range ts {
			if t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		if min <= 0 {
			return 0, fmt.Errorf("metrics: non-positive run time %v", min)
		}
		return max / min, nil
	}
	if dAll, err = ratio(times); err != nil {
		return 0, 0, err
	}
	if len(times) == 2 {
		return dAll, 1, nil
	}
	if dMinus, err = ratio(times[1:]); err != nil {
		return 0, 0, err
	}
	return dAll, dMinus, nil
}

// Speedup returns t1/tp, the Figure 2 measure.
func Speedup(t1, tp float64) float64 {
	if tp <= 0 {
		return math.Inf(1)
	}
	return t1 / tp
}
