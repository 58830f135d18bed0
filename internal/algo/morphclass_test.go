package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func TestMorphParamsValidation(t *testing.T) {
	f := cube.MustNew(8, 8, 8)
	cases := []MorphParams{
		{Classes: 0, Iterations: 5, Radius: 1, Theta: 0.1},
		{Classes: 2, Iterations: 0, Radius: 1, Theta: 0.1},
		{Classes: 2, Iterations: 5, Radius: 0, Theta: 0.1},
		{Classes: 2, Iterations: 5, Radius: 1, Theta: 0},
	}
	for _, p := range cases {
		if _, err := MorphSequential(f, p); err == nil {
			t.Errorf("params %+v: expected error", p)
		}
	}
	if _, err := MorphSequential(nil, DefaultMorphParams()); err == nil {
		t.Error("nil cube: expected error")
	}
}

func TestMorphHalo(t *testing.T) {
	p := MorphParams{Classes: 2, Iterations: 5, Radius: 2, Theta: 0.1}
	if p.Halo() != 10 {
		t.Errorf("Halo = %d, want 10", p.Halo())
	}
}

func TestMorphSequentialPerfectOnSeparableScene(t *testing.T) {
	f, truth := materialsCube(20, 8, 16, 4)
	res, err := MorphSequential(f, MorphParams{Classes: 4, Iterations: 2, Radius: 1, Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != f.NumPixels() {
		t.Fatalf("%d labels", len(res.Labels))
	}
	if acc := labelAgreement(res.Labels, truth, 4); acc < 0.999 {
		t.Errorf("accuracy %v on a perfectly separable scene", acc)
	}
}

func TestMorphEndmembersAreDistinct(t *testing.T) {
	sc := testScene(t)
	res, err := MorphSequential(sc.Cube, DefaultMorphParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) == 0 || len(res.Classes) > 7 {
		t.Fatalf("%d endmembers", len(res.Classes))
	}
	// Endmembers are deduplicated after purity averaging at half of
	// Theta (see MorphParams.fuseTheta).
	minSep := DefaultMorphParams().fuseTheta()
	for i := range res.Classes {
		for j := i + 1; j < len(res.Classes); j++ {
			if d := sadOf(res.Classes[i], res.Classes[j]); d <= minSep {
				t.Errorf("endmembers %d and %d within fuse threshold: %v", i, j, d)
			}
		}
	}
}

func TestMorphLabelsInRange(t *testing.T) {
	sc := testScene(t)
	res, err := MorphSequential(sc.Cube, DefaultMorphParams())
	if err != nil {
		t.Fatal(err)
	}
	for p, lab := range res.Labels {
		if lab < 0 || lab >= len(res.Classes) {
			t.Fatalf("pixel %d label %d out of range", p, lab)
		}
	}
}

func TestMorphParallelAgreesOnSeparableScene(t *testing.T) {
	f, truth := materialsCube(24, 8, 16, 4)
	params := MorphParams{Classes: 4, Iterations: 2, Radius: 1, Theta: 0.1}
	for _, p := range []int{1, 3} {
		root, _ := runParallel(t, testNet(t, p), func(c *mpi.Comm) any {
			r, err := MorphParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		res := root.(*ClassificationResult)
		if acc := labelAgreement(res.Labels, truth, 4); acc < 0.999 {
			t.Errorf("P=%d: parallel MORPH accuracy %v", p, acc)
		}
	}
}

func TestMorphParallelUsesOverlapBorders(t *testing.T) {
	// With a striped scene whose boundaries fall inside partitions, the
	// parallel classifier must still label boundary-adjacent pixels the
	// same way the sequential one does — the halo provides the rows the
	// kernel needs across partition edges.
	f, _ := materialsCube(24, 8, 16, 3)
	params := MorphParams{Classes: 3, Iterations: 3, Radius: 1, Theta: 0.1}
	seq, err := MorphSequential(f, params)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := runParallel(t, testNet(t, 4), func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	par := root.(*ClassificationResult)
	if labelAgreement(par.Labels, seq.Labels, 3) < 0.999 {
		t.Error("parallel labels disagree with sequential despite overlap borders")
	}
}

func TestMorphLowSeqShare(t *testing.T) {
	// Table 6: MORPH's sequential share at the master is the lowest of
	// the four algorithms; check SEQ is a small fraction of the total.
	sc := testScene(t)
	_, res := runParallel(t, testNet(t, 4), func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, sc.Cube), DefaultMorphParams(), Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	com, seq, par := res.RootBreakdown()
	if seq > 0.2*(com+seq+par) {
		t.Errorf("MORPH SEQ share %v of %v too high", seq, com+seq+par)
	}
}

func TestFuseCandidatesOrderAndCap(t *testing.T) {
	a := candidate{score: 0.9, sig: []float32{1, 0, 0}, valid: true}
	b := candidate{score: 0.8, sig: []float32{0.99, 0.01, 0}, valid: true} // dup of a
	c := candidate{score: 0.7, sig: []float32{0, 1, 0}, valid: true}
	d := candidate{score: 0.6, sig: []float32{0, 0, 1}, valid: true}
	bad := candidate{score: 99, valid: false}
	out, calls := fuseCandidates([]candidate{d, b, a, c, bad}, 2, 0.1)
	if len(out) != 2 {
		t.Fatalf("fused to %d", len(out))
	}
	if out[0][0] != 1 { // a first (highest score), b dropped as duplicate
		t.Errorf("first endmember %v, want a", out[0])
	}
	if out[1][1] != 1 { // c next distinct
		t.Errorf("second endmember %v, want c", out[1])
	}
	if calls == 0 {
		t.Error("no SAD calls counted")
	}
}

func TestSelectCandidatesRestrictedToRange(t *testing.T) {
	f, _ := materialsCube(12, 4, 8, 3)
	scores := make([]float64, f.NumPixels())
	for i := range scores {
		scores[i] = float64(i) // highest at the bottom
	}
	src := make([]int32, f.NumPixels())
	for p := range src {
		src[p] = int32(p)
	}
	cands, _ := selectCandidates(f, src, scores, 0, 4, 2, 0.1)
	for _, cd := range cands {
		if cd.line < 0 || cd.line >= 4 {
			t.Errorf("candidate at line %d outside [0,4)", cd.line)
		}
	}
}

// sadOf aliases spectral.SAD for readability in this file's assertions.
func sadOf(a, b []float32) float64 { return spectral.SAD(a, b) }

func TestMorphMinimalHaloApproximates(t *testing.T) {
	// The minimal-halo policy must still classify the striped scene
	// correctly away from partition borders, with far fewer halo rows
	// held per worker.
	f, truth := materialsCube(24, 8, 16, 3)
	params := MorphParams{Classes: 3, Iterations: 3, Radius: 1, Theta: 0.1, MinimalHalo: true}
	if params.Halo() != 1 {
		t.Fatalf("minimal halo = %d, want 1", params.Halo())
	}
	root, _ := runParallel(t, testNet(t, 4), func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	res := root.(*ClassificationResult)
	if acc := labelAgreement(res.Labels, truth, 3); acc < 0.95 {
		t.Errorf("minimal-halo accuracy %v, want near-exact on stripes", acc)
	}
}

func TestMorphMinimalHaloCheaper(t *testing.T) {
	// On shallow partitions the minimal policy must charge less parallel
	// compute than the exact policy.
	sc := testScene(t)
	parOf := func(minimal bool) float64 {
		params := DefaultMorphParams()
		params.Classes = 4
		params.MinimalHalo = minimal
		_, res := runParallel(t, testNet(t, 6), func(c *mpi.Comm) any {
			r, err := MorphParallel(c, rootCube(c, sc.Cube), params, Exec{Strategy: partition.Homogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		return res.Clocks[1].Par
	}
	exact := parOf(false)
	minimal := parOf(true)
	if minimal >= exact {
		t.Errorf("minimal halo PAR %v not below exact %v", minimal, exact)
	}
}
