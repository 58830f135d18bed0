package metrics

import (
	"fmt"
	"strings"
)

// ConfusionMatrix is the standard remote-sensing accuracy assessment
// companion to the overall/per-class figures of Table 4: cell [t][p]
// counts ground-truth-class-t pixels that were predicted as class p
// (after label mapping). Producer's accuracy, user's accuracy and Cohen's
// kappa coefficient follow Landgrebe's conventions (reference [9] of the
// paper).
type ConfusionMatrix struct {
	// Classes is the number of classes n; Counts is n x n, truth-major.
	Classes int
	Counts  [][]int
}

// Confusion builds the confusion matrix of predictions against truth
// (entries < 0 in truth ignored) under the same greedy one-to-one label
// mapping Classification uses. Predicted labels with no mapping are
// counted in the column of the class they most overlap... they have none,
// so they land in no column; such pixels count against producer's
// accuracy only through their rows' totals.
func Confusion(truth []int, numClasses int, pred []int) (*ConfusionMatrix, error) {
	acc, err := Classification(truth, numClasses, pred)
	if err != nil {
		return nil, err
	}
	cm := &ConfusionMatrix{Classes: numClasses, Counts: make([][]int, numClasses)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, numClasses)
	}
	for i, tc := range truth {
		if tc < 0 {
			continue
		}
		if mapped, ok := acc.Mapping[pred[i]]; ok {
			cm.Counts[tc][mapped]++
		}
	}
	return cm, nil
}

// Total returns the number of counted pixels.
func (cm *ConfusionMatrix) Total() int {
	var n int
	for _, row := range cm.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// OverallAccuracy returns trace/total.
func (cm *ConfusionMatrix) OverallAccuracy() float64 {
	total := cm.Total()
	if total == 0 {
		return 0
	}
	var diag int
	for k := 0; k < cm.Classes; k++ {
		diag += cm.Counts[k][k]
	}
	return float64(diag) / float64(total)
}

// Kappa returns Cohen's kappa coefficient: agreement beyond chance,
// (po - pe) / (1 - pe). 1 is perfect, 0 chance-level.
func (cm *ConfusionMatrix) Kappa() float64 {
	total := float64(cm.Total())
	if total == 0 {
		return 0
	}
	po := cm.OverallAccuracy()
	var pe float64
	for k := 0; k < cm.Classes; k++ {
		var rowTotal, colTotal float64
		for j := 0; j < cm.Classes; j++ {
			rowTotal += float64(cm.Counts[k][j])
			colTotal += float64(cm.Counts[j][k])
		}
		pe += (rowTotal / total) * (colTotal / total)
	}
	if pe >= 1 {
		return 0
	}
	return (po - pe) / (1 - pe)
}

// String renders the matrix with row/column totals.
func (cm *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (rows=truth, cols=predicted), n=%d\n", cm.Total())
	for t := 0; t < cm.Classes; t++ {
		for p := 0; p < cm.Classes; p++ {
			fmt.Fprintf(&b, "%6d", cm.Counts[t][p])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "overall %.4f, kappa %.4f\n", cm.OverallAccuracy(), cm.Kappa())
	return b.String()
}
