package algo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
)

// Property-based checks of the parallel/sequential equivalence across
// random scene contents, processor counts and platform speeds.

// randomCube fills a small cube with seeded pseudo-random reflectance.
func randomCube(seed int64, lines, samples, bands int) *cube.Cube {
	rng := rand.New(rand.NewSource(seed))
	f := cube.MustNew(lines, samples, bands)
	for i := range f.Data {
		f.Data[i] = rng.Float32() + 0.05
	}
	return f
}

// randomNet builds a platform with pseudo-random cycle-times.
func randomNet(t *testing.T, seed int64, p int) *platform.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{
			ID:        i + 1,
			CycleTime: 0.001 * float64(1+rng.Intn(40)),
			MemoryMB:  2048,
		}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 5 + float64(rng.Intn(100))
			}
		}
	}
	// Symmetrize.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			links[j][i] = links[i][j]
		}
	}
	net, err := platform.New("random", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestQuickATDCAParallelEqualsSequential(t *testing.T) {
	f := func(seed int64, pRaw, tRaw uint8) bool {
		p := 1 + int(pRaw)%6
		targets := 2 + int(tRaw)%4
		fcube := randomCube(seed, 10+int(pRaw)%8, 6, 12)
		seq, err := ATDCASequential(fcube, targets)
		if err != nil {
			return false
		}
		net := randomNet(t, seed+1, p)
		w := mpi.NewWorld(net)
		res, err := w.Run(func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, fcube), DetectionParams{Targets: targets}, Exec{Strategy: partition.Heterogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		if err != nil {
			return false
		}
		return sameTargets(seq.Targets, res.Root().(*DetectionResult).Targets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickUFCLSParallelEqualsSequential(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := 1 + int(pRaw)%5
		fcube := randomCube(seed, 12, 5, 10)
		seq, err := UFCLSSequential(fcube, 3)
		if err != nil {
			return false
		}
		net := randomNet(t, seed+2, p)
		w := mpi.NewWorld(net)
		res, err := w.Run(func(c *mpi.Comm) any {
			r, err := UFCLSParallel(c, rootCube(c, fcube), DetectionParams{Targets: 3}, Exec{Strategy: partition.Homogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		if err != nil {
			return false
		}
		return sameTargets(seq.Targets, res.Root().(*DetectionResult).Targets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickLabelsCoverEveryPixel(t *testing.T) {
	// For any random scene and processor count, both classifiers label
	// exactly every pixel with an in-range class.
	f := func(seed int64, pRaw uint8) bool {
		p := 1 + int(pRaw)%5
		fcube := randomCube(seed, 14, 6, 10)
		net := randomNet(t, seed+3, p)
		for _, alg := range []string{"pct", "morph"} {
			w := mpi.NewWorld(net)
			res, err := w.Run(func(c *mpi.Comm) any {
				var r *ClassificationResult
				var err error
				if alg == "pct" {
					r, err = PCTParallel(c, rootCube(c, fcube), PCTParams{Classes: 3, Theta: 0.05, MaxReps: 12}, Exec{Strategy: partition.Heterogeneous{}})
				} else {
					r, err = MorphParallel(c, rootCube(c, fcube), MorphParams{Classes: 3, Iterations: 2, Radius: 1, Theta: 0.05}, Exec{Strategy: partition.Heterogeneous{}})
				}
				if err != nil {
					panic(err)
				}
				return r
			})
			if err != nil {
				return false
			}
			r := res.Root().(*ClassificationResult)
			if len(r.Labels) != fcube.NumPixels() || len(r.Classes) == 0 {
				return false
			}
			for _, lab := range r.Labels {
				if lab < 0 || lab >= len(r.Classes) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickWallTimeCoversRootTime(t *testing.T) {
	// Invariant of the virtual-time model: the run's wall time is at
	// least the root's COM+SEQ+PAR decomposition, for any platform.
	f := func(seed int64, pRaw uint8) bool {
		p := 2 + int(pRaw)%5
		fcube := randomCube(seed, 12, 5, 8)
		net := randomNet(t, seed+4, p)
		w := mpi.NewWorld(net)
		res, err := w.Run(func(c *mpi.Comm) any {
			r, err := ATDCAParallel(c, rootCube(c, fcube), DetectionParams{Targets: 2}, Exec{Strategy: partition.Heterogeneous{}})
			if err != nil {
				panic(err)
			}
			return r
		})
		if err != nil {
			return false
		}
		com, seq, par := res.RootBreakdown()
		rootTotal := com + seq + par
		return res.WallTime() >= rootTotal-1e-9 || rootTotal-res.WallTime() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// testSchedule is one way the tests schedule a parallel run.
type testSchedule struct {
	name     string
	strat    partition.Strategy
	balanced bool
}

var testSchedules = []testSchedule{
	{"static-hetero", partition.Heterogeneous{}, false},
	{"static-homo", partition.Homogeneous{}, false},
	{"balanced", partition.Heterogeneous{}, true},
}

// runScheduled runs the named algorithm on f under sch with the given
// checkpointer (nil for none). It returns the root's result, the run's
// statistics and event trace, and — instead of all three — the error the
// algorithm returned at the root, if it did.
func runScheduled(t *testing.T, net *platform.Network, f *cube.Cube, alg string, sch testSchedule, ck checkpoint.Checkpointer) (any, *mpi.RunResult, *mpi.Trace, error) {
	t.Helper()
	var bal *balance.Balancer
	if sch.balanced {
		spans, err := sch.strat.Partition(f.Lines, f.Samples, f.Bands, net.Procs)
		if err != nil {
			t.Fatal(err)
		}
		bal = balance.New(net, spans, f)
	}
	det := DetectionParams{Targets: 5}
	pct := PCTParams{Classes: 4, Theta: 0.04, MaxReps: 24}
	mor := MorphParams{Classes: 4, Iterations: 2, Radius: 1, Theta: 0.06}
	ex := Exec{Strategy: sch.strat, Balance: bal, Checkpoint: ck}
	var rootErr error
	w := mpi.NewWorld(net)
	trace := w.EnableTrace()
	res, err := w.Run(func(c *mpi.Comm) any {
		var r any
		var err error
		switch alg {
		case ckptATDCA:
			r, err = ATDCAParallel(c, rootCube(c, f), det, ex)
		case ckptUFCLS:
			r, err = UFCLSParallel(c, rootCube(c, f), det, ex)
		case ckptPCT:
			r, err = PCTParallel(c, rootCube(c, f), pct, ex)
		case ckptMORPH:
			r, err = MorphParallel(c, rootCube(c, f), mor, ex)
		}
		if err != nil {
			if c.Root() {
				rootErr = err
			}
			panic(err)
		}
		return r
	})
	if rootErr != nil {
		return nil, nil, nil, rootErr
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", alg, sch.name, err)
	}
	return res.Root(), res, trace, nil
}

// Schedule x checkpoint: under every schedule a checkpointed run, and a
// run resumed from any round's snapshot, returns exactly what the
// uninterrupted run returns; and a static run without a checkpointer is
// the original protocol message for message — in particular it never
// sends the resume broadcast.
func TestResumeFromEveryRoundUnderEverySchedule(t *testing.T) {
	f := testScene(t).Cube
	net := testHeteroNet(t)
	workers := net.Size() - 1
	// Messages per worker of a static run: the scatter, then per detector
	// round a candidate gather and the U broadcast; for PCT the three
	// statistics gathers, the mean broadcast, the covariance gather, the
	// step-7 broadcast, the reduced-cube round trip and the label gather;
	// for MORPH the candidate gather, the endmember broadcast and the
	// label gather.
	protocol := map[string]int{ckptATDCA: 1 + 2*5, ckptUFCLS: 1 + 2*5, ckptPCT: 10, ckptMORPH: 4}
	sends := func(res *mpi.RunResult, trace *mpi.Trace) (total, resume int) {
		for _, ctr := range res.Counters {
			total += ctr.Sends
		}
		for _, e := range trace.Events() {
			if e.Kind == mpi.EventSend && e.Tag == tagResume {
				resume++
			}
		}
		return total, resume
	}
	for _, alg := range []string{ckptATDCA, ckptUFCLS, ckptPCT, ckptMORPH} {
		for _, sch := range testSchedules {
			t.Run(alg+"/"+sch.name, func(t *testing.T) {
				plain, res, trace, err := runScheduled(t, net, f, alg, sch, nil)
				if err != nil {
					t.Fatal(err)
				}
				total, resume := sends(res, trace)
				if resume != 0 {
					t.Errorf("run without a checkpointer sent %d resume messages", resume)
				}
				if want := protocol[alg] * workers; !sch.balanced && total != want {
					t.Errorf("static run sent %d messages, the protocol has %d", total, want)
				}

				rec := &recordingStore{}
				fresh, res, trace, err := runScheduled(t, net, f, alg, sch, rec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, fresh) {
					t.Error("checkpointing changed the result")
				}
				if _, resume := sends(res, trace); resume != workers {
					t.Errorf("checkpointed run sent %d resume messages, want one per worker (%d)", resume, workers)
				}
				if len(rec.snaps) == 0 {
					t.Fatal("checkpointed run saved nothing")
				}
				for i := range rec.snaps {
					from := &checkpoint.MemStore{}
					from.Save(rec.snaps[i])
					resumed, _, _, err := runScheduled(t, net, f, alg, sch, from)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, resumed) {
						t.Errorf("resuming from snapshot %d (round %d) changed the result", i, rec.snaps[i].Round)
					}
				}
			})
		}
	}
}
