package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
)

// adaptiveNet builds a 4-processor platform with an 8x speed spread. The
// adaptive algorithm is never told these cycle-times — it must discover
// them from measured round times — so the baseline for comparison is the
// Homogeneous strategy (the behaviour of a scheduler with no platform
// knowledge) and the WEA given correct speeds is the oracle.
func adaptiveNet(t *testing.T) *platform.Network {
	t.Helper()
	procs := []platform.Processor{
		{ID: 1, CycleTime: 0.002, MemoryMB: 2048},
		{ID: 2, CycleTime: 0.016, MemoryMB: 2048}, // 8x slower
		{ID: 3, CycleTime: 0.004, MemoryMB: 2048},
		{ID: 4, CycleTime: 0.008, MemoryMB: 2048},
	}
	links := make([][]float64, 4)
	for i := range links {
		links[i] = make([]float64, 4)
		for j := range links[i] {
			if i != j {
				links[i][j] = 10
			}
		}
	}
	n, err := platform.New("adaptive-test", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// atdcaAdaptive runs ATDCA under the adaptive schedule from equal shares,
// as core's Adaptive variant does, and returns the trace at the root.
func atdcaAdaptive(c *mpi.Comm, f *cube.Cube, params DetectionParams) (*DetectionResult, *AdaptiveTrace, error) {
	var tr AdaptiveTrace
	r, err := ATDCAParallel(c, f, params, Exec{Strategy: partition.Homogeneous{}, Adaptive: &tr})
	if err != nil || !c.Root() {
		return nil, nil, err
	}
	return r, &tr, nil
}

func TestAdaptiveMatchesStaticDetections(t *testing.T) {
	sc := testScene(t)
	seq, err := ATDCASequential(sc.Cube, 6)
	if err != nil {
		t.Fatal(err)
	}
	net := adaptiveNet(t)
	w := mpi.NewWorld(net)
	res, err := w.Run(func(c *mpi.Comm) any {
		r, _, err := atdcaAdaptive(c, rootCube(c, sc.Cube), DetectionParams{Targets: 6})
		if err != nil {
			panic(err)
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	par := res.Root().(*DetectionResult)
	if !sameTargets(seq.Targets, par.Targets) {
		t.Error("adaptive run detected different targets than sequential")
	}
}

func TestAdaptiveConvergesToBalance(t *testing.T) {
	sc := testScene(t)
	net := adaptiveNet(t)
	w := mpi.NewWorld(net)
	res, err := w.Run(func(c *mpi.Comm) any {
		_, trace, err := atdcaAdaptive(c, rootCube(c, sc.Cube), DetectionParams{Targets: 8})
		if err != nil {
			panic(err)
		}
		return trace
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Root().(*AdaptiveTrace)
	if len(trace.Imbalance) != 8 {
		t.Fatalf("trace has %d rounds", len(trace.Imbalance))
	}
	// Round 0 runs on equal shares: imbalance near the speed ratio (8x).
	if trace.Imbalance[0] < 4 {
		t.Errorf("round 0 imbalance %v suspiciously low for equal shares on a 8x-spread platform", trace.Imbalance[0])
	}
	if !trace.Rebalanced[0] || trace.MovedRows[0] == 0 {
		t.Error("round 0 should have triggered a re-partition")
	}
	// Once rebalanced, measured imbalance collapses toward 1 (the cost
	// model is exact, so the speed estimates are, too).
	last := trace.Imbalance[len(trace.Imbalance)-1]
	if last > 1.6 {
		t.Errorf("final imbalance %v did not converge", last)
	}
	// The final spans tile the scene.
	if err := partition.Validate(trace.FinalSpans, sc.Cube.Lines); err != nil {
		t.Errorf("final spans invalid: %v", err)
	}
	// The fastest processor (rank 0, 0.002) ends with more rows than the
	// slowest (rank 1, 0.016).
	if trace.FinalSpans[0].Len() <= trace.FinalSpans[1].Len() {
		t.Errorf("fast processor has %d rows, slow has %d", trace.FinalSpans[0].Len(), trace.FinalSpans[1].Len())
	}
}

func TestAdaptiveBeatsEqualShares(t *testing.T) {
	sc := testScene(t)
	net := adaptiveNet(t)
	timeOf := func(prog mpi.Program) float64 {
		w := mpi.NewWorld(net)
		res, err := w.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.WallTime()
	}
	adaptive := timeOf(func(c *mpi.Comm) any {
		r, _, err := atdcaAdaptive(c, rootCube(c, sc.Cube), DetectionParams{Targets: 8})
		if err != nil {
			panic(err)
		}
		return r
	})
	static := timeOf(func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 8}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	oracle := timeOf(func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 8}, Exec{Strategy: partition.Heterogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	if adaptive >= static {
		t.Errorf("adaptive (%v) not faster than equal shares (%v)", adaptive, static)
	}
	// Adaptive pays one equal-share round plus redistribution; it should
	// land within 2x of the WEA oracle that knew the speeds upfront.
	if adaptive > 2*oracle {
		t.Errorf("adaptive (%v) too far from the WEA oracle (%v)", adaptive, oracle)
	}
}

func TestAdaptiveSingleProcessor(t *testing.T) {
	sc := testScene(t)
	procs := []platform.Processor{{ID: 1, CycleTime: 0.01, MemoryMB: 4096}}
	net, err := platform.New("one", procs, [][]float64{{0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(net)
	res, err := w.Run(func(c *mpi.Comm) any {
		r, trace, err := atdcaAdaptive(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4})
		if err != nil {
			panic(err)
		}
		if trace == nil {
			panic("root must get a trace")
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ATDCASequential(sc.Cube, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(seq.Targets, res.Root().(*DetectionResult).Targets) {
		t.Error("single-processor adaptive differs from sequential")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	net := adaptiveNet(t)
	w := mpi.NewWorld(net)
	_, err := w.Run(func(c *mpi.Comm) any {
		_, _, err := atdcaAdaptive(c, nil, DetectionParams{Targets: 4})
		if c.Root() {
			if err == nil {
				panic("expected error for nil cube")
			}
			panic("abort-ok")
		}
		c.Recv(0, tagScatter)
		return nil
	})
	if err == nil {
		t.Error("expected run failure")
	}
}

func TestAdaptiveThresholdSuppressesRebalance(t *testing.T) {
	if rebalanceThreshold != 1.15 {
		t.Fatalf("rebalance threshold = %v, want 1.15", rebalanceThreshold)
	}
	// On identical processors with lines dividing evenly among them,
	// equal shares are already balanced: every round's imbalance stays
	// within the threshold, so no row ever moves.
	net := platform.FullyHomogeneous()
	sc, err := scene.Generate(scene.Config{Lines: 2 * net.Size(), Samples: 28, Bands: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(net)
	res, err := w.Run(func(c *mpi.Comm) any {
		_, trace, err := atdcaAdaptive(c, rootCube(c, sc.Cube), DetectionParams{Targets: 5})
		if err != nil {
			panic(err)
		}
		return trace
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Root().(*AdaptiveTrace)
	if len(trace.Imbalance) != 5 {
		t.Fatalf("trace has %d rounds, want 5", len(trace.Imbalance))
	}
	for r, imb := range trace.Imbalance {
		if imb > rebalanceThreshold {
			t.Errorf("round %d imbalance %v exceeds %v on a homogeneous network", r, imb, rebalanceThreshold)
		}
	}
	for r, moved := range trace.MovedRows {
		if moved != 0 || trace.Rebalanced[r] {
			t.Errorf("round %d moved %d rows (rebalanced %v) on a homogeneous network", r, moved, trace.Rebalanced[r])
		}
	}
}

// TestApportionRows covers what the adaptive schedule adds to
// partition.ByWeight: a worker with no measured speed weighs as much as
// the slowest measured one.
func TestApportionRows(t *testing.T) {
	spans := apportionRows(100, []float64{1, 3, 0, 4})
	if err := partition.Validate(spans, 100); err != nil {
		t.Fatal(err)
	}
	// Weights 1:3:1:4 over 100 lines.
	want := []int{11, 33, 11, 45}
	for i, s := range spans {
		if s.Len() != want[i] {
			t.Fatalf("spans %v, want lengths %v", spans, want)
		}
	}
}
