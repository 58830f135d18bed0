package algo

import (
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
)

func TestUFCLSSequentialValidation(t *testing.T) {
	f := cube.MustNew(4, 4, 8)
	if _, err := UFCLSSequential(nil, 3); err == nil {
		t.Error("nil cube: expected error")
	}
	if _, err := UFCLSSequential(f, 0); err == nil {
		t.Error("t=0: expected error")
	}
}

func TestUFCLSFirstTargetIsBrightest(t *testing.T) {
	sc := testScene(t)
	res, err := UFCLSSequential(sc.Cube, 3)
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

func TestUFCLSTargetsDistinct(t *testing.T) {
	sc := testScene(t)
	res, err := UFCLSSequential(sc.Cube, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, tg := range res.Targets {
		key := [2]int{tg.Line, tg.Sample}
		if seen[key] {
			t.Errorf("duplicate target at %v", key)
		}
		seen[key] = true
	}
}

func TestUFCLSErrorsDecreaseOverall(t *testing.T) {
	// The max reconstruction error is non-increasing as the endmember
	// set grows (each new target only enlarges the feasible set for
	// every other pixel). Round 1's score may exceed round 0's
	// (brightness, a different criterion), so compare from round 1 on.
	sc := testScene(t)
	res, err := UFCLSSequential(sc.Cube, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(res.Targets); i++ {
		if res.Targets[i].Score > res.Targets[i-1].Score*1.001 {
			t.Errorf("round %d error %v above round %d error %v",
				i, res.Targets[i].Score, i-1, res.Targets[i-1].Score)
		}
	}
}

func TestUFCLSParallelMatchesSequential(t *testing.T) {
	sc := testScene(t)
	seq, err := UFCLSSequential(sc.Cube, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		root, _ := runParallel(t, testNet(t, p), func(c *mpi.Comm) any {
			r, err := UFCLSParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 5}, Exec{Strategy: partition.Homogeneous{}})
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

func TestUFCLSHeterogeneousMatchesHomogeneous(t *testing.T) {
	sc := testScene(t)
	net := testHeteroNet(t)
	get := func(strat partition.Strategy) *DetectionResult {
		root, _ := runParallel(t, net, func(c *mpi.Comm) any {
			r, err := UFCLSParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: strat})
			if err != nil {
				panic(err)
			}
			return r
		})
		return root.(*DetectionResult)
	}
	if !sameTargets(get(partition.Heterogeneous{}).Targets, get(partition.Homogeneous{}).Targets) {
		t.Error("hetero and homo variants detected different targets")
	}
}

func TestATDCASlowerThanUFCLSPerTarget(t *testing.T) {
	// The paper's Table 3: sequential ATDCA (1263 s) is slower than
	// UFCLS (916 s) because ATDCA applies a dense N x N projector to
	// every pixel each round. The cost model must preserve that
	// relationship.
	sc := testScene(t)
	net := testNet(t, 2)
	parTime := func(prog mpi.Program) float64 {
		_, res := runParallel(t, net, prog)
		return res.Clocks[0].Par
	}
	at := parTime(func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 6}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	uf := parTime(func(c *mpi.Comm) any {
		r, err := UFCLSParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 6}, Exec{Strategy: partition.Homogeneous{}})
		if err != nil {
			panic(err)
		}
		return r
	})
	if at <= uf {
		t.Errorf("ATDCA PAR %v not above UFCLS PAR %v (paper: dense projector dominates)", at, uf)
	}
}

// The bounds a rank carries between rounds are keyed by global line and
// start empty, so a balanced schedule whose guided chunks move lines
// between ranks, and a run resumed from any round (bounds are not
// checkpointed), return the sequential scan's targets and scores bit for
// bit.
func TestUFCLSSkipMatchesSequentialUnderEveryScheduleAndResume(t *testing.T) {
	sc, err := scene.Generate(scene.Config{Lines: 64, Samples: 64, Bands: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := platform.ByName("fully-het", 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := UFCLSSequential(sc.Cube, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range testSchedules {
		rec := &recordingStore{}
		got, _, _, err := runScheduled(t, net, sc.Cube, ckptUFCLS, sch, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("%s: targets differ from the sequential run", sch.name)
		}
		for i, snap := range rec.snaps {
			from := &checkpoint.MemStore{}
			from.Save(snap)
			resumed, _, _, err := runScheduled(t, net, sc.Cube, ckptUFCLS, sch, from)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resumed, seq) {
				t.Errorf("%s: resuming from snapshot %d (round %d) changed the targets", sch.name, i, snap.Round)
			}
		}
	}
}
