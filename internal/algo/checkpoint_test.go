package algo

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/partition"
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

// runDetector executes a parallel detector with the given checkpointer.
func runDetector(t *testing.T, name string, ck checkpoint.Checkpointer) (*DetectionResult, *mpi.RunResult) {
	t.Helper()
	sc := testScene(t)
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		params := DetectionParams{Targets: 6}
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
			plain, _ := runDetector(t, name, nil)

			// A checkpointed run must detect exactly the same targets and
			// save one snapshot per round.
			rec := &recordingStore{}
			fresh, freshRes := runDetector(t, name, rec)
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
			resumed, resumedRes := runDetector(t, name, mid)
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
			again, _ := runDetector(t, name, done)
			if !sameTargets(plain.Targets, again.Targets) {
				t.Fatal("resume from the final snapshot changed the targets")
			}
		})
	}
}

func TestDetectorResumeIgnoresForeignSnapshot(t *testing.T) {
	// A snapshot from a different algorithm (or a corrupt payload) must be
	// ignored: the run falls back to round zero and still succeeds.
	plain, _ := runDetector(t, ckptATDCA, nil)
	foreign := &checkpoint.MemStore{}
	foreign.Save(checkpoint.Snapshot{Algorithm: ckptUFCLS, Round: 3, Payload: encodeTargets(plain.Targets[:3])})
	res, _ := runDetector(t, ckptATDCA, foreign)
	if !sameTargets(plain.Targets, res.Targets) {
		t.Error("foreign snapshot disturbed the run")
	}
	corrupt := &checkpoint.MemStore{}
	corrupt.Save(checkpoint.Snapshot{Algorithm: ckptATDCA, Round: 3, Payload: []byte{1, 2, 3}})
	res, _ = runDetector(t, ckptATDCA, corrupt)
	if !sameTargets(plain.Targets, res.Targets) {
		t.Error("corrupt snapshot payload disturbed the run")
	}
}

func runPCT(t *testing.T, ck checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult) {
	t.Helper()
	sc := testScene(t)
	params := DefaultPCTParams()
	params.Classes = 5
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		r, err := PCTParallel(c, rootCube(c, sc.Cube), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		if err != nil {
			panic(err)
		}
		return r
	})
	return root.(*ClassificationResult), res
}

func runMorph(t *testing.T, ck checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult) {
	t.Helper()
	sc := testScene(t)
	params := DefaultMorphParams()
	root, res := runParallel(t, testNet(t, 3), func(c *mpi.Comm) any {
		r, err := MorphParallel(c, rootCube(c, sc.Cube), params, Exec{Strategy: partition.Homogeneous{}, Checkpoint: ck})
		if err != nil {
			panic(err)
		}
		return r
	})
	return root.(*ClassificationResult), res
}

func TestClassifierPhaseResume(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, checkpoint.Checkpointer) (*ClassificationResult, *mpi.RunResult)
	}{
		{ckptPCT, runPCT},
		{ckptMORPH, runMorph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := tc.run(t, nil)
			rec := &recordingStore{}
			fresh, freshRes := tc.run(t, rec)
			if !sameLabels(plain.Labels, fresh.Labels) {
				t.Fatal("checkpointing changed the classification")
			}
			if len(rec.snaps) != 1 || rec.snaps[0].Round != 1 || rec.snaps[0].Algorithm != tc.name {
				t.Fatalf("snapshots = %+v, want one %s phase snapshot at round 1", rec.snaps, tc.name)
			}
			resumed, resumedRes := tc.run(t, &rec.MemStore)
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
