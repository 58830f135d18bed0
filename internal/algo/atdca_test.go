package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func TestATDCASequentialValidation(t *testing.T) {
	f := cube.MustNew(4, 4, 8)
	if _, err := ATDCASequential(nil, 3); err == nil {
		t.Error("nil cube: expected error")
	}
	if _, err := ATDCASequential(f, 0); err == nil {
		t.Error("t=0: expected error")
	}
	if _, err := ATDCASequential(f, 9); err == nil {
		t.Error("t > bands: expected error")
	}
	small := cube.MustNew(1, 2, 8)
	if _, err := ATDCASequential(small, 3); err == nil {
		t.Error("t > pixels: expected error")
	}
}

func TestATDCAFirstTargetIsBrightest(t *testing.T) {
	sc := testScene(t)
	res, err := ATDCASequential(sc.Cube, 3)
	if err != nil {
		t.Fatal(err)
	}
	best, bestB := 0, -1.0
	for p := 0; p < sc.Cube.NumPixels(); p++ {
		if b := sc.Cube.Brightness(p); b > bestB {
			best, bestB = p, b
		}
	}
	l, s := sc.Cube.Coord(best)
	if res.Targets[0].Line != l || res.Targets[0].Sample != s {
		t.Errorf("first target (%d,%d), want brightest (%d,%d)",
			res.Targets[0].Line, res.Targets[0].Sample, l, s)
	}
}

func TestATDCATargetsAreDistinctPixels(t *testing.T) {
	sc := testScene(t)
	res, err := ATDCASequential(sc.Cube, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 8 {
		t.Fatalf("got %d targets", len(res.Targets))
	}
	seen := map[[2]int]bool{}
	for _, tg := range res.Targets {
		key := [2]int{tg.Line, tg.Sample}
		if seen[key] {
			t.Errorf("duplicate target at %v", key)
		}
		seen[key] = true
		if len(tg.Signature) != sc.Cube.Bands {
			t.Errorf("target signature has %d bands", len(tg.Signature))
		}
		pix := sc.Cube.Pixel(tg.Line, tg.Sample)
		if spectral.SAD(tg.Signature, pix) > 1e-7 {
			t.Error("target signature does not match its pixel")
		}
	}
}

func TestATDCAFindsPlantedHotSpots(t *testing.T) {
	// With enough targets, ATDCA must land exactly on the planted
	// thermal hot spots (the Table 3 result: SAD ~ 0 for every spot).
	sc := testScene(t)
	res, err := ATDCASequential(sc.Cube, 12)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, h := range sc.Truth.HotSpots {
		for _, tg := range res.Targets {
			if tg.Line == h.Line && tg.Sample == h.Sample {
				found++
				break
			}
		}
	}
	if found < 5 {
		t.Errorf("ATDCA found only %d of 7 planted hot spots with t=12", found)
	}
}

func TestATDCAParallelMatchesSequential(t *testing.T) {
	sc := testScene(t)
	seq, err := ATDCASequential(sc.Cube, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		root, _ := runParallel(t, testNet(t, p), func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 6}, Exec{Strategy: partition.Homogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		par := root.(*DetectionResult)
		if !sameTargets(seq.Targets, par.Targets) {
			t.Errorf("P=%d: parallel targets differ from sequential", p)
		}
	}
}

func TestATDCAHeterogeneousMatchesHomogeneous(t *testing.T) {
	// The partitioning strategy must not change WHAT is detected, only
	// how fast (the paper's premise for comparing the variants).
	sc := testScene(t)
	net := testHeteroNet(t)
	get := func(strat partition.Strategy) *DetectionResult {
		root, _ := runParallel(t, net, func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 5}, Exec{Strategy: strat})
			if err != nil {
				panic(err)
			}
			return r
		})
		return root.(*DetectionResult)
	}
	het := get(partition.Heterogeneous{})
	hom := get(partition.Homogeneous{})
	if !sameTargets(het.Targets, hom.Targets) {
		t.Error("hetero and homo variants detected different targets")
	}
}

func TestATDCAParallelDeterministicTiming(t *testing.T) {
	sc := testScene(t)
	net := testHeteroNet(t)
	run := func() []float64 {
		_, res := runParallel(t, net, func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: partition.Heterogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		return res.ProcTimes()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual times differ between runs: %v vs %v", a, b)
		}
	}
}

func TestATDCAHeterogeneousFasterOnHeteroNet(t *testing.T) {
	// On a heterogeneous platform the WEA-partitioned run must beat the
	// equal-share run — the paper's core claim (Table 5).
	sc := testScene(t)
	net := testHeteroNet(t)
	timeFor := func(strat partition.Strategy) float64 {
		_, res := runParallel(t, net, func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 5}, Exec{Strategy: strat})
			if err != nil {
				panic(err)
			}
			return r
		})
		return res.WallTime()
	}
	het := timeFor(partition.Heterogeneous{})
	hom := timeFor(partition.Homogeneous{})
	if het >= hom {
		t.Errorf("hetero run (%v) not faster than homo run (%v) on heterogeneous platform", het, hom)
	}
}

func TestATDCAParallelWithMoreProcsThanLines(t *testing.T) {
	sc, err := cubeWithBright(5, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := runParallel(t, testNet(t, 8), func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, sc), DetectionParams{Targets: 3}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	par := root.(*DetectionResult)
	seq, err := ATDCASequential(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(seq.Targets, par.Targets) {
		t.Error("empty partitions broke detection")
	}
}

// cubeWithBright builds a small cube with deterministic varied content.
func cubeWithBright(lines, samples, bands int) (*cube.Cube, error) {
	f, err := cube.New(lines, samples, bands)
	if err != nil {
		return nil, err
	}
	for p := 0; p < f.NumPixels(); p++ {
		v := f.PixelAt(p)
		for b := range v {
			v[b] = float32(1 + (p*7+b*3)%13)
		}
	}
	return f, nil
}
