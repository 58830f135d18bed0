package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/scene"
)

func ctxScene(t *testing.T) *scene.Scene {
	t.Helper()
	sc, err := scene.Generate(scene.Config{Lines: 32, Samples: 16, Bands: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRunContextCancelledUpfront(t *testing.T) {
	sc := ctxScene(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, platform.FullyHeterogeneous(), ATDCA, Hetero, sc.Cube, DefaultParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
}

func TestRunContextDeadlineMidRun(t *testing.T) {
	sc := ctxScene(t)
	// An already-expired deadline: the run must abort at its first charge
	// and surface DeadlineExceeded, not produce a partial report.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := RunContext(ctx, platform.FullyHeterogeneous(), ATDCA, Adaptive, sc.Cube, DefaultParams())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want context.DeadlineExceeded", err)
	}
	if rep != nil {
		t.Fatal("got a report from a run that never started")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	sc := ctxScene(t)
	p := DefaultParams()
	plain, err := Run(platform.FullyHomogeneous(), PCT, Homo, sc.Cube, p)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := RunContext(context.Background(), platform.FullyHomogeneous(), PCT, Homo, sc.Cube, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WallTime != withCtx.WallTime {
		t.Fatalf("wall times diverge: %v vs %v", plain.WallTime, withCtx.WallTime)
	}
}

func TestRunSequentialContextCancelled(t *testing.T) {
	sc := ctxScene(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSequentialContext(ctx, 0.0072, UFCLS, sc.Cube, DefaultParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSequentialContext error = %v, want context.Canceled", err)
	}
}
