package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// materialsCube builds a cube of k clearly separated materials in
// horizontal stripes, ideal for unsupervised classification checks.
func materialsCube(lines, samples, bands, k int) (*cube.Cube, []int) {
	f := cube.MustNew(lines, samples, bands)
	truth := make([]int, f.NumPixels())
	sigs := make([][]float32, k)
	for m := range sigs {
		sig := make([]float32, bands)
		for b := range sig {
			sig[b] = 0.05
		}
		// A strong block of reflectance unique to the material.
		lo := m * bands / k
		hi := (m + 1) * bands / k
		for b := lo; b < hi; b++ {
			sig[b] = 1
		}
		sigs[m] = sig
	}
	for l := 0; l < lines; l++ {
		m := l * k / lines
		for s := 0; s < samples; s++ {
			f.SetPixel(l, s, sigs[m])
			truth[f.FlatIndex(l, s)] = m
		}
	}
	return f, truth
}

// labelAgreement computes the best-case accuracy of predicted labels
// against truth under the optimal greedy label mapping.
func labelAgreement(pred, truth []int, k int) float64 {
	if len(pred) != len(truth) {
		return 0
	}
	counts := map[[2]int]int{}
	for i := range pred {
		counts[[2]int{pred[i], truth[i]}]++
	}
	usedPred := map[int]bool{}
	usedTruth := map[int]bool{}
	matched := 0
	for range make([]struct{}, k) {
		bestC, bp, bt := -1, -1, -1
		for key, c := range counts {
			if usedPred[key[0]] || usedTruth[key[1]] {
				continue
			}
			if c > bestC {
				bestC, bp, bt = c, key[0], key[1]
			}
		}
		if bp == -1 {
			break
		}
		usedPred[bp] = true
		usedTruth[bt] = true
		matched += bestC
	}
	return float64(matched) / float64(len(pred))
}

func TestPCTParamsValidation(t *testing.T) {
	f := cube.MustNew(8, 8, 8)
	cases := []PCTParams{
		{Classes: 0, Theta: 0.1, MaxReps: 8},
		{Classes: 9, Theta: 0.1, MaxReps: 16},
		{Classes: 3, Theta: 0, MaxReps: 8},
		{Classes: 5, Theta: 0.1, MaxReps: 3},
	}
	for _, p := range cases {
		if _, err := PCTSequential(f, p); err == nil {
			t.Errorf("params %+v: expected error", p)
		}
	}
	if _, err := PCTSequential(nil, DefaultPCTParams()); err == nil {
		t.Error("nil cube: expected error")
	}
}

func TestUniqueScanSeparatesMaterials(t *testing.T) {
	f, _ := materialsCube(12, 6, 16, 3)
	reps, calls := uniqueScan(f, 0.1, 16)
	if len(reps) != 3 {
		t.Fatalf("uniqueScan found %d representatives, want 3", len(reps))
	}
	if calls <= 0 {
		t.Error("no SAD calls counted")
	}
	total := 0
	for _, r := range reps {
		total += r.count
	}
	if total != f.NumPixels() {
		t.Errorf("representative counts sum to %d, want %d", total, f.NumPixels())
	}
}

func TestUniqueScanRespectsMaxReps(t *testing.T) {
	f, _ := materialsCube(12, 6, 16, 4)
	reps, _ := uniqueScan(f, 0.1, 2)
	if len(reps) > 2 {
		t.Errorf("uniqueScan returned %d reps above cap 2", len(reps))
	}
	total := 0
	for _, r := range reps {
		total += r.count
	}
	if total != f.NumPixels() {
		t.Errorf("overflow pixels not absorbed: %d of %d", total, f.NumPixels())
	}
}

func TestMergeRepsReducesToC(t *testing.T) {
	f, _ := materialsCube(12, 6, 16, 4)
	reps, _ := uniqueScan(f, 0.1, 16)
	merged, calls := mergeReps(reps, 2)
	if len(merged) != 2 {
		t.Fatalf("merged to %d, want 2", len(merged))
	}
	if calls <= 0 {
		t.Error("merge counted no SAD calls")
	}
	// Merging fewer reps than c is a no-op.
	same, calls2 := mergeReps(merged, 5)
	if len(same) != 2 || calls2 != 0 {
		t.Error("merge below target mutated the set")
	}
}

func TestPCTSequentialPerfectOnSeparableScene(t *testing.T) {
	f, truth := materialsCube(20, 8, 16, 4)
	res, err := PCTSequential(f, PCTParams{Classes: 4, Theta: 0.1, MaxReps: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != f.NumPixels() {
		t.Fatalf("%d labels", len(res.Labels))
	}
	if len(res.Classes) != 4 {
		t.Fatalf("%d classes", len(res.Classes))
	}
	if acc := labelAgreement(res.Labels, truth, 4); acc < 0.999 {
		t.Errorf("accuracy %v on a perfectly separable scene", acc)
	}
}

func TestPCTLabelsInRange(t *testing.T) {
	sc := testScene(t)
	res, err := PCTSequential(sc.Cube, DefaultPCTParams())
	if err != nil {
		t.Fatal(err)
	}
	for p, lab := range res.Labels {
		if lab < 0 || lab >= len(res.Classes) {
			t.Fatalf("pixel %d label %d out of range", p, lab)
		}
	}
}

func TestPCTParallelAgreesWithSequential(t *testing.T) {
	// Exact label equality is not required (summation order differs),
	// but both must classify the separable scene perfectly.
	f, truth := materialsCube(24, 8, 16, 4)
	params := PCTParams{Classes: 4, Theta: 0.1, MaxReps: 16}
	for _, p := range []int{1, 4} {
		root, _ := runParallel(t, testNet(t, p), func(c *mpi.Comm) any {
			r, err := PCTParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		res := root.(*ClassificationResult)
		if acc := labelAgreement(res.Labels, truth, 4); acc < 0.999 {
			t.Errorf("P=%d: parallel PCT accuracy %v", p, acc)
		}
	}
}

func TestPCTParallelNonRootReturnsNil(t *testing.T) {
	f, _ := materialsCube(16, 8, 16, 2)
	params := PCTParams{Classes: 2, Theta: 0.1, MaxReps: 8}
	_, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		r, err := PCTParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	for rank := 1; rank < 3; rank++ {
		if res.Values[rank] != (*ClassificationResult)(nil) {
			t.Errorf("rank %d returned %v", rank, res.Values[rank])
		}
	}
}

func TestPCTSeqHeavyAtMaster(t *testing.T) {
	// The paper's Table 6: PCT has the highest SEQ share of the four
	// algorithms (eigendecomposition + unique set merging at the master).
	sc := testScene(t)
	net := testNet(t, 4)
	seqOf := func(prog mpi.Program) float64 {
		_, res := runParallel(t, net, prog)
		_, seq, _ := res.RootBreakdown()
		return seq
	}
	pctSeq := seqOf(func(c *mpi.Comm) any {
		r, err := PCTParallel(c, rootCube(c, sc.Cube), DefaultPCTParams(), Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	morphSeq := seqOf(func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, sc.Cube), DefaultMorphParams(), Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	if pctSeq <= morphSeq {
		t.Errorf("PCT SEQ %v not above MORPH SEQ %v", pctSeq, morphSeq)
	}
}

func TestClassifyReducedUsesAngle(t *testing.T) {
	// Two reps along different axes in reduced space: pixels project
	// closest in angle, regardless of magnitude.
	f, _ := materialsCube(8, 4, 8, 2)
	res, err := PCTSequential(f, PCTParams{Classes: 2, Theta: 0.1, MaxReps: 8})
	if err != nil {
		t.Fatal(err)
	}
	// All pixels of a stripe share a label.
	first := res.Labels[0]
	for s := 1; s < 4; s++ {
		if res.Labels[s] != first {
			t.Error("stripe pixels labeled differently")
		}
	}
	lastRow := (8 - 1) * 4
	if res.Labels[lastRow] == first {
		t.Error("distinct materials share a label")
	}
}

func TestRepsToClasses(t *testing.T) {
	reps := []rep{{sig: []float32{1, 2}, count: 3}, {sig: []float32{4, 5}, count: 1}}
	cls := repsToClasses(reps)
	if len(cls) != 2 || cls[1][0] != 4 {
		t.Errorf("repsToClasses = %v", cls)
	}
}

func TestMergeRepsKeepsLargerPopulation(t *testing.T) {
	a := []float32{1, 0, 0, 0}
	b := []float32{0.98, 0.02, 0, 0} // very close to a
	c := []float32{0, 0, 0, 1}
	reps := []rep{{sig: a, count: 2}, {sig: b, count: 10}, {sig: c, count: 5}}
	merged, _ := mergeReps(reps, 2)
	if len(merged) != 2 {
		t.Fatalf("merged to %d", len(merged))
	}
	// The a/b pair merges; b's signature survives (larger count).
	foundB := false
	for _, r := range merged {
		if spectral.SAD(r.sig, b) < 1e-6 && r.count == 12 {
			foundB = true
		}
	}
	if !foundB {
		t.Errorf("merge did not keep the larger population: %+v", merged)
	}
}
