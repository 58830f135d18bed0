package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

func sameDetections(t *testing.T, a, b *RunReport) {
	t.Helper()
	if a.Detection == nil || b.Detection == nil {
		t.Fatal("missing detection result")
	}
	ta, tb := a.Detection.Targets, b.Detection.Targets
	if len(ta) != len(tb) {
		t.Fatalf("target counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i].Line != tb[i].Line || ta[i].Sample != tb[i].Sample {
			t.Fatalf("target %d differs: (%d,%d) vs (%d,%d)", i, ta[i].Line, ta[i].Sample, tb[i].Line, tb[i].Sample)
		}
	}
}

// A clean checkpointed run saves one snapshot per round, charges the I/O
// into SEQ, reports no resume — and a second run over the now-populated
// store resumes past every round while detecting the same targets.
func TestCheckpointCleanRunBookkeeping(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 3)
	params := smallParams()

	plain, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CheckpointSaves != 0 || plain.CheckpointOverhead != 0 || plain.ResumedFromRound != 0 {
		t.Fatalf("run without checkpointer reported checkpoint activity: %+v", plain)
	}

	store := &checkpoint.MemStore{}
	ctx := WithCheckpointer(context.Background(), store)
	rep, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, plain, rep)
	if rep.CheckpointSaves != params.Targets {
		t.Errorf("saves = %d, want one per round (%d)", rep.CheckpointSaves, params.Targets)
	}
	if rep.CheckpointBytes <= 0 || rep.CheckpointOverhead <= 0 {
		t.Errorf("checkpoint accounting empty: bytes=%d overhead=%v", rep.CheckpointBytes, rep.CheckpointOverhead)
	}
	if rep.ResumedFromRound != 0 {
		t.Errorf("clean run reports resume from round %d", rep.ResumedFromRound)
	}
	if rep.Seq <= plain.Seq {
		t.Errorf("checkpoint I/O not charged into SEQ: %v <= %v", rep.Seq, plain.Seq)
	}

	// The store now holds the final round: a rerun resumes past all of it.
	rep2, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, plain, rep2)
	if rep2.ResumedFromRound != params.Targets {
		t.Errorf("resumed from round %d, want %d", rep2.ResumedFromRound, params.Targets)
	}
	if rep2.CheckpointSaves != 0 {
		t.Errorf("full resume still saved %d snapshots", rep2.CheckpointSaves)
	}
	if rep2.Seq+rep2.Par >= rep.Seq+rep.Par {
		t.Errorf("full resume did not reduce compute: %v >= %v", rep2.Seq+rep2.Par, rep.Seq+rep.Par)
	}
}

// A detector resumes a larger run's snapshot at its own final round: a
// 4-target ATDCA run over a 6-target run's last snapshot clamps the
// restored list to 4 targets, so it resumed from round 4, not 6.
func TestResumedFromRoundIsTheClampedRound(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 3)
	params := smallParams()
	params.Targets = 6
	store := &checkpoint.MemStore{}
	ctx := WithCheckpointer(context.Background(), store)
	if _, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, params); err != nil {
		t.Fatal(err)
	}
	if snap, ok := store.Latest(); !ok || snap.Round != 6 {
		t.Fatalf("store holds round %d (ok %v), want the 6-target run's last, 6", snap.Round, ok)
	}
	params.Targets = 4
	plain, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, plain, rep)
	if rep.ResumedFromRound != 4 {
		t.Errorf("resumed from round %d, want 4", rep.ResumedFromRound)
	}
}

// Phase checkpointing covers the classifiers too: a PCT rerun over a
// store holding the step-7 snapshot resumes without recomputing the
// statistics and eigendecomposition phases.
func TestCheckpointResumeClassifier(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	params := smallParams()
	params.WorkScale = 50

	store := &checkpoint.MemStore{}
	ctx := WithCheckpointer(context.Background(), store)
	clean, err := RunContext(ctx, net, PCT, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if clean.CheckpointSaves != 1 || clean.ResumedFromRound != 0 {
		t.Fatalf("clean PCT run: saves=%d resumedFrom=%d, want 1 and 0", clean.CheckpointSaves, clean.ResumedFromRound)
	}

	rep, err := RunContext(ctx, net, PCT, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedFromRound != 1 {
		t.Fatalf("resumed from round %d, want 1", rep.ResumedFromRound)
	}
	if rep.Classification == nil || clean.Classification == nil {
		t.Fatal("missing classification")
	}
	for i, v := range clean.Classification.Labels {
		if rep.Classification.Labels[i] != v {
			t.Fatal("resumed PCT classified differently")
		}
	}
	if rep.Seq+rep.Par >= clean.Seq+clean.Par {
		t.Errorf("phase resume did not reduce compute: %v >= %v", rep.Seq+rep.Par, clean.Seq+clean.Par)
	}
}

// failingStore refuses every save.
type failingStore struct{ checkpoint.MemStore }

var errStoreFull = errors.New("store full")

func (*failingStore) Save(checkpoint.Snapshot) error { return errStoreFull }

// A store that cannot save fails the run, and the run's error carries the
// store's: a detector fails at its first round, a classifier at its phase
// snapshot.
func TestCheckpointSaveFailureFailsRun(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 3)
	for _, alg := range []Algorithm{ATDCA, PCT} {
		t.Run(string(alg), func(t *testing.T) {
			ctx := WithCheckpointer(context.Background(), &failingStore{})
			rep, err := RunContext(ctx, net, alg, Hetero, sc.Cube, smallParams())
			if !errors.Is(err, errStoreFull) {
				t.Fatalf("run over a failing store: report %v, error %v; want an error wrapping %v", rep, err, errStoreFull)
			}
		})
	}
}
