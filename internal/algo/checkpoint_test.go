package algo

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/scene"
)

// recordingStore keeps every snapshot ever saved, so tests can rewind a
// run to an arbitrary round boundary and resume from it.
type recordingStore struct {
	checkpoint.MemStore
	snaps []checkpoint.Snapshot
}

func (r *recordingStore) Save(s checkpoint.Snapshot) error {
	r.snaps = append(r.snaps, s)
	return r.MemStore.Save(s)
}

func sameLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runDetector executes a parallel detector for the given number of
// targets with the given checkpointer.
func runDetector(t *testing.T, name string, targets int, ck checkpoint.Checkpointer) (*DetectionResult, *mpi.RunResult) {
	t.Helper()
	sc := testScene(t)
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		params := DetectionParams{Targets: targets}
		var r *DetectionResult
		var err error
		switch name {
		case ckptATDCA:
			r, err = ATDCAParallel(c, rootCube(c, sc.Cube), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		case ckptUFCLS:
			r, err = UFCLSParallel(c, rootCube(c, sc.Cube), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		}
		if err != nil {
			panic(err)
		}
		return r
	})
	return root.(*DetectionResult), res
}

func TestDetectorCheckpointResume(t *testing.T) {
	for _, name := range []string{ckptATDCA, ckptUFCLS} {
		t.Run(name, func(t *testing.T) {
			plain, _ := runDetector(t, name, 6, nil)

			// A checkpointed run must detect exactly the same targets and
			// save one snapshot per round.
			rec := &recordingStore{}
			fresh, freshRes := runDetector(t, name, 6, rec)
			if !sameTargets(plain.Targets, fresh.Targets) {
				t.Fatal("checkpointing changed the detected targets")
			}
			if len(rec.snaps) != 6 {
				t.Fatalf("saved %d snapshots, want one per round (6)", len(rec.snaps))
			}
			for i, s := range rec.snaps {
				if s.Round != i+1 || s.Algorithm != name {
					t.Fatalf("snapshot %d = {%s round %d}, want {%s round %d}", i, s.Algorithm, s.Round, name, i+1)
				}
			}

			// Resume from the round-3 boundary: same targets, strictly less
			// master-side and parallel work than the from-scratch run.
			mid := &checkpoint.MemStore{}
			mid.Save(rec.snaps[2])
			resumed, resumedRes := runDetector(t, name, 6, mid)
			if !sameTargets(plain.Targets, resumed.Targets) {
				t.Fatal("resumed run detected different targets")
			}
			_, fSeq, fPar := freshRes.RootBreakdown()
			_, rSeq, rPar := resumedRes.RootBreakdown()
			if rSeq+rPar >= fSeq+fPar {
				t.Errorf("resume from round 3 did not reduce compute: %v >= %v", rSeq+rPar, fSeq+fPar)
			}
			if resumedRes.WallTime() >= freshRes.WallTime() {
				t.Errorf("resumed wall time %v not below fresh %v", resumedRes.WallTime(), freshRes.WallTime())
			}

			// Resume from the final boundary: no rounds left to run.
			done := &checkpoint.MemStore{}
			done.Save(rec.snaps[len(rec.snaps)-1])
			again, _ := runDetector(t, name, 6, done)
			if !sameTargets(plain.Targets, again.Targets) {
				t.Fatal("resume from the final snapshot changed the targets")
			}
		})
	}
}

func TestDetectorResumeIgnoresForeignSnapshot(t *testing.T) {
	// A snapshot from a different algorithm (or a corrupt payload) must be
	// ignored: the run falls back to round zero and still succeeds.
	plain, _ := runDetector(t, ckptATDCA, 6, nil)
	foreign := &checkpoint.MemStore{}
	foreign.Save(checkpoint.Snapshot{Algorithm: ckptUFCLS, Round: 3, Payload: encodeTargets(plain.Targets[:3])})
	res, _ := runDetector(t, ckptATDCA, 6, foreign)
	if !sameTargets(plain.Targets, res.Targets) {
		t.Error("foreign snapshot disturbed the run")
	}
	corrupt := &checkpoint.MemStore{}
	corrupt.Save(checkpoint.Snapshot{Algorithm: ckptATDCA, Round: 3, Payload: []byte{1, 2, 3}})
	res, _ = runDetector(t, ckptATDCA, 6, corrupt)
	if !sameTargets(plain.Targets, res.Targets) {
		t.Error("corrupt snapshot payload disturbed the run")
	}
}

// classifierRun executes a parallel classifier over f with the given
// checkpointer.
type classifierRun func(t *testing.T, f *cube.Cube, ck checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult)

// A snapshot from a run with more targets resumes a smaller run at its
// final round: the restored list is clamped to the smaller count, so the
// run detects exactly the uninterrupted run's targets, runs no round and
// saves nothing.
func TestDetectorResumesSmallerRunFromLargerSnapshot(t *testing.T) {
	for _, name := range []string{ckptATDCA, ckptUFCLS} {
		t.Run(name, func(t *testing.T) {
			plain, _ := runDetector(t, name, 4, nil)
			rec := &recordingStore{}
			runDetector(t, name, 6, rec)
			from := &recordingStore{}
			from.MemStore.Save(rec.snaps[len(rec.snaps)-1])
			resumed, res := runDetector(t, name, 4, from)
			if !sameTargets(plain.Targets, resumed.Targets) {
				t.Fatalf("resumed targets %+v, want the uninterrupted run's %+v", resumed.Targets, plain.Targets)
			}
			if len(from.snaps) != 0 {
				t.Errorf("a run resumed at its final round saved %d snapshots", len(from.snaps))
			}
			if n := res.Counters[0].Checkpoints; n != 1 {
				t.Errorf("master charged %d checkpoint operations, want the one restore", n)
			}
		})
	}
}

func runPCT(t *testing.T, f *cube.Cube, ck checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult) {
	t.Helper()
	params := DefaultPCTParams()
	params.Classes = 5
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		r, err := PCTParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		if err != nil {
			panic(err)
		}
		return r
	})
	return root.(*ClassificationResult), res
}

func runMorph(t *testing.T, f *cube.Cube, ck checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult) {
	t.Helper()
	params := DefaultMorphParams()
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, f), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		if err != nil {
			panic(err)
		}
		return r
	})
	return root.(*ClassificationResult), res
}

func TestClassifierPhaseResume(t *testing.T) {
	f := testScene(t).Cube
	cases := []struct {
		name string
		run  classifierRun
	}{
		{ckptPCT, runPCT},
		{ckptMORPH, runMorph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := tc.run(t, f, nil)
			rec := &recordingStore{}
			fresh, freshRes := tc.run(t, f, rec)
			if !sameLabels(plain.Labels, fresh.Labels) {
				t.Fatal("checkpointing changed the classification")
			}
			if len(rec.snaps) != 1 || rec.snaps[0].Round != 1 || rec.snaps[0].Algorithm != tc.name {
				t.Fatalf("snapshots = %+v, want one %s phase snapshot at round 1", rec.snaps, tc.name)
			}
			resumed, resumedRes := tc.run(t, f, &rec.MemStore)
			if !sameLabels(plain.Labels, resumed.Labels) {
				t.Fatal("resumed run classified differently")
			}
			_, fSeq, fPar := freshRes.RootBreakdown()
			_, rSeq, rPar := resumedRes.RootBreakdown()
			if rSeq+rPar >= fSeq+fPar {
				t.Errorf("phase resume did not reduce compute: %v >= %v", rSeq+rPar, fSeq+fPar)
			}
		})
	}
}

// A classifier restores only its own phase snapshot taken at its own band
// count: PCT given MORPH's snapshot, MORPH given PCT's, or either given
// its own from a 12-band scene runs from scratch — one save, no restore
// charge — and labels exactly as the plain run does.
func TestClassifierResumeIgnoresForeignSnapshot(t *testing.T) {
	f := testScene(t).Cube
	narrow, err := scene.Generate(scene.Config{Lines: 36, Samples: 28, Bands: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snapshotOf := func(run classifierRun, f *cube.Cube) checkpoint.Snapshot {
		rec := &recordingStore{}
		run(t, f, rec)
		if len(rec.snaps) != 1 {
			t.Fatalf("phase run saved %d snapshots, want 1", len(rec.snaps))
		}
		return rec.snaps[0]
	}
	cases := []struct {
		name string
		run  classifierRun
		snap checkpoint.Snapshot
	}{
		{"PCT given MORPH", runPCT, snapshotOf(runMorph, f)},
		{"MORPH given PCT", runMorph, snapshotOf(runPCT, f)},
		{"PCT at 12 bands", runPCT, snapshotOf(runPCT, narrow.Cube)},
		{"MORPH at 12 bands", runMorph, snapshotOf(runMorph, narrow.Cube)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := tc.run(t, f, nil)
			from := &recordingStore{}
			from.MemStore.Save(tc.snap)
			got, res := tc.run(t, f, from)
			if !sameLabels(plain.Labels, got.Labels) {
				t.Fatal("an unusable snapshot changed the classification")
			}
			if len(from.snaps) != 1 {
				t.Errorf("saved %d snapshots, want the fresh run's one", len(from.snaps))
			}
			if n := res.Counters[0].Checkpoints; n != 1 {
				t.Errorf("master charged %d checkpoint operations, want only the save", n)
			}
		})
	}
}

func TestCheckpointChargesAppearInTrace(t *testing.T) {
	sc := testScene(t)
	net := testNet(t, 2)
	w := mpi.NewWorld(net)
	tr := w.EnableTrace()
	rec := &recordingStore{}
	_, err := w.Run(func(c *mpi.Comm) any {
		r, err := ATDCAParallel(c, rootCube(c, sc.Cube), DetectionParams{Targets: 4}, Exec{Strategy: partition.Homogeneous{}, Checkpoint: rec})
		if err != nil {
			panic(err)
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints [2]int
	for _, e := range tr.Events() {
		if e.Kind == mpi.EventCheckpoint {
			checkpoints[e.Rank]++
		}
	}
	if checkpoints[0] != 4 {
		t.Errorf("root traced %d checkpoint events, want 4", checkpoints[0])
	}
	if checkpoints[1] != 0 {
		t.Errorf("worker traced %d checkpoint events, want 0", checkpoints[1])
	}
}

func TestTargetCodecRoundTrip(t *testing.T) {
	targets := []Target{
		{Line: 3, Sample: 9, Score: 1.25, Signature: []float32{1, 2, 3}},
		{Line: 0, Sample: 0, Score: -0.5, Signature: []float32{}},
	}
	got, err := decodeTargets(encodeTargets(targets))
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(targets, got) {
		t.Fatalf("round-trip = %+v, want %+v", got, targets)
	}
	if got[0].Score != 1.25 || len(got[0].Signature) != 3 || got[0].Signature[2] != 3 {
		t.Fatalf("round-trip lost payload detail: %+v", got[0])
	}
	for cut := 1; cut < 12; cut++ {
		b := encodeTargets(targets)
		if _, err := decodeTargets(b[:len(b)-cut]); err == nil {
			t.Fatalf("truncating %d bytes decoded cleanly", cut)
		}
	}
	if _, err := decodeTargets(append(encodeTargets(targets), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

func TestSigCodecRoundTrip(t *testing.T) {
	sigs := [][]float32{{1.5, -2}, {0, 0, 7}}
	got, err := decodeSigs(encodeSigs(sigs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][1] != -2 || got[1][2] != 7 {
		t.Fatalf("round-trip = %+v", got)
	}
	if _, err := decodeSigs([]byte{255, 255, 255, 255}); err == nil {
		t.Fatal("hostile count decoded cleanly")
	}
}

// A payload that passed its frame's CRC but came from elsewhere restores
// nothing: counts above MaxInt32 and shapes whose byte size overflows an
// int are decode errors on every platform, never a panic.
func TestCodecsRejectHostileCounts(t *testing.T) {
	le := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	pct := func(b []byte) error { _, err := decodePCTState(b); return err }
	targets := func(b []byte) error { _, err := decodeTargets(b); return err }
	sigs := func(b []byte) error { _, err := decodeSigs(b); return err }
	cases := []struct {
		name   string
		decode func([]byte) error
		b      []byte
	}{
		{"pct rows 2^31", pct, le(1<<31, 1<<30)},
		{"pct rows*cols*8 = 2^63", pct, le(1<<30, 1<<30)},
		{"targets count 2^32-1", targets, le(1<<32 - 1)},
		{"sig length 2^32-1", sigs, le(1, 1<<32-1)},
	}
	for _, c := range cases {
		if err := c.decode(c.b); err == nil {
			t.Errorf("%s: decoded cleanly", c.name)
		}
	}
}
