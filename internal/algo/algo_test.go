package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
)

// testNet builds a small homogeneous network for protocol tests.
func testNet(t *testing.T, p int) *platform.Network {
	t.Helper()
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: 0.01, MemoryMB: 2048}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 10
			}
		}
	}
	n, err := platform.New("test", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testHeteroNet builds a small heterogeneous network (one fast, one slow,
// one medium processor).
func testHeteroNet(t *testing.T) *platform.Network {
	t.Helper()
	procs := []platform.Processor{
		{ID: 1, CycleTime: 0.004, MemoryMB: 2048},
		{ID: 2, CycleTime: 0.02, MemoryMB: 1024},
		{ID: 3, CycleTime: 0.008, MemoryMB: 2048},
	}
	links := [][]float64{{0, 20, 40}, {20, 0, 30}, {40, 30, 0}}
	n, err := platform.New("test-hetero", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testScene generates the small deterministic scene shared by the
// algorithm tests.
func testScene(t *testing.T) *scene.Scene {
	t.Helper()
	sc, err := scene.Generate(scene.Config{Lines: 36, Samples: 28, Bands: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runParallel executes an SPMD program on a fresh world over net and
// returns the root's value.
func runParallel(t *testing.T, net *platform.Network, prog mpi.Program) (any, *mpi.RunResult) {
	t.Helper()
	w := mpi.NewWorld(net)
	res, err := w.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res.Root(), res
}

// rootCube returns f at the root rank and nil elsewhere, matching real
// usage where only the master holds the scene.
func rootCube(c *mpi.Comm, f *cube.Cube) *cube.Cube {
	if c.Root() {
		return f
	}
	return nil
}

func sameTargets(a, b []Target) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Line != b[i].Line || a[i].Sample != b[i].Sample {
			return false
		}
	}
	return true
}

func TestScatterCubeDistributesAllRows(t *testing.T) {
	sc := testScene(t)
	net := testNet(t, 4)
	_, res := runParallel(t, net, func(c *mpi.Comm) any {
		part, spans, geom, err := ScatterCube(c, rootCube(c, sc.Cube), partition.Homogeneous{}, 0)
		if err != nil {
			panic(err)
		}
		if c.Root() {
			if err := partition.Validate(spans, sc.Cube.Lines); err != nil {
				panic(err)
			}
		}
		if geom != [3]int{36, 28, 16} {
			panic("geometry not transmitted")
		}
		own, err := part.OwnedView()
		if err != nil {
			panic(err)
		}
		if own == nil {
			return 0
		}
		return own.Lines
	})
	total := 0
	for _, v := range res.Values {
		total += v.(int)
	}
	if total != sc.Cube.Lines {
		t.Errorf("workers own %d lines, want %d", total, sc.Cube.Lines)
	}
	// Scatter must charge communication on the root.
	if res.Clocks[0].Com <= 0 {
		t.Error("scatter charged no communication")
	}
}

func TestScatterCubeWithHalo(t *testing.T) {
	sc := testScene(t)
	net := testNet(t, 3)
	runParallel(t, net, func(c *mpi.Comm) any {
		part, _, _, err := ScatterCube(c, rootCube(c, sc.Cube), partition.Homogeneous{}, 2)
		if err != nil {
			panic(err)
		}
		if part.Halo.Lo > part.Owned.Lo || part.Halo.Hi < part.Owned.Hi {
			panic("halo does not contain owned span")
		}
		// Middle ranks must actually have the extra rows.
		if c.Rank() == 1 && part.Halo.Len() != part.Owned.Len()+4 {
			panic("rank 1 halo not extended on both sides")
		}
		return nil
	})
}

func TestScatterCubeRootNeedsData(t *testing.T) {
	net := testNet(t, 2)
	w := mpi.NewWorld(net)
	_, err := w.Run(func(c *mpi.Comm) any {
		_, _, _, err := ScatterCube(c, nil, partition.Homogeneous{}, 0)
		if c.Root() && err == nil {
			panic("expected error for nil cube at root")
		}
		if c.Root() {
			panic("abort") // root errored as expected; kill the run
		}
		c.Recv(0, tagScatter) // never satisfied
		return nil
	})
	if err == nil {
		t.Error("expected run failure")
	}
}
