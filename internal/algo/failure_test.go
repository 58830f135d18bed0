package algo

import (
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// Failure injection: a worker dying mid-protocol must fail the whole run
// with the originating error, never hang it. These tests kill one rank at
// different protocol stages of each algorithm.

// dieAt wraps an algorithm program so that the given rank panics once it
// has received its partition (i.e., mid-protocol, with peers blocked on
// later messages from it).
func dieAfterScatter(t *testing.T, victim int, body func(c *mpi.Comm) any) mpi.Program {
	t.Helper()
	return func(c *mpi.Comm) any {
		if c.Rank() == victim {
			// Consume the scatter so the master is already past its
			// sends, then die before contributing any candidate.
			c.Recv(0, tagScatter)
			panic("injected worker failure")
		}
		return body(c)
	}
}

func TestWorkerDeathFailsDetectionRun(t *testing.T) {
	sc := testScene(t)
	for _, name := range []string{"atdca", "ufcls"} {
		w := mpi.NewWorld(testNet(t, 4))
		_, err := w.Run(dieAfterScatter(t, 2, func(c *mpi.Comm) any {
			var r *DetectionResult
			var err error
			if name == "atdca" {
				r, err = ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: partition.Homogeneous{}})
			} else {
				r, err = UFCLSParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: partition.Homogeneous{}})
			}
			if err != nil {
				panic(err)
			}
			return r
		}))
		if err == nil {
			t.Fatalf("%s: run with dead worker succeeded", name)
		}
		if !strings.Contains(err.Error(), "injected worker failure") {
			t.Errorf("%s: error %v does not carry the original failure", name, err)
		}
	}
}

func TestWorkerDeathFailsClassificationRun(t *testing.T) {
	sc := testScene(t)
	for _, name := range []string{"pct", "morph"} {
		w := mpi.NewWorld(testNet(t, 4))
		_, err := w.Run(dieAfterScatter(t, 1, func(c *mpi.Comm) any {
			var r *ClassificationResult
			var err error
			if name == "pct" {
				r, err = PCTParallel(c, rootCube(c, sc.Cube), PCTParams{Classes: 4, Theta: 0.08, MaxReps: 16}, Exec{Strategy: partition.Homogeneous{}})
			} else {
				r, err = MorphParallel(c, rootCube(c, sc.Cube), MorphParams{Classes: 4, Iterations: 2, Radius: 1, Theta: 0.08}, Exec{Strategy: partition.Homogeneous{}})
			}
			if err != nil {
				panic(err)
			}
			return r
		}))
		if err == nil {
			t.Fatalf("%s: run with dead worker succeeded", name)
		}
		if !strings.Contains(err.Error(), "injected worker failure") {
			t.Errorf("%s: error %v does not carry the original failure", name, err)
		}
	}
}

func TestMasterDeathFailsRun(t *testing.T) {
	sc := testScene(t)
	w := mpi.NewWorld(testNet(t, 3))
	_, err := w.Run(func(c *mpi.Comm) any {
		if c.Root() {
			panic("master died before scattering")
		}
		r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	if err == nil || !strings.Contains(err.Error(), "master died") {
		t.Errorf("err = %v", err)
	}
}

func TestDegenerateSingleMaterialScene(t *testing.T) {
	// A scene with one uniform material: MORPH must still return a
	// classification (one class), not crash; ATDCA's projector becomes
	// degenerate after the first target, which must surface as an error,
	// not a hang.
	f := cube.MustNew(12, 8, 8)
	for p := 0; p < f.NumPixels(); p++ {
		f.SetPixel(p/8, p%8, []float32{1, 2, 3, 4, 4, 3, 2, 1})
	}
	res, err := MorphSequential(f, MorphParams{Classes: 3, Iterations: 2, Radius: 1, Theta: 0.05})
	if err != nil {
		t.Fatalf("uniform scene MORPH failed: %v", err)
	}
	if len(res.Classes) != 1 {
		t.Errorf("uniform scene produced %d classes, want 1", len(res.Classes))
	}
	// Parallel ATDCA on the degenerate scene: duplicate targets make
	// U U^T singular. The run must terminate with an error.
	w := mpi.NewWorld(testNet(t, 2))
	_, err = w.Run(func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, f), DetectionParams{Targets: 3}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	if err == nil || !strings.Contains(err.Error(), "linearly dependent") {
		t.Errorf("degenerate ATDCA err = %v, want linear dependence", err)
	}
}
