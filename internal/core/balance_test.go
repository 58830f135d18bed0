package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/balance"
	"repro/internal/fault"
	"repro/internal/platform"
)

func balancedCtx() context.Context {
	return WithBalance(context.Background(), balance.DefaultPolicy())
}

// Balanced runs must compute exactly what the static schedule computes:
// only the timing buckets may move.
func TestBalancedMatchesStaticOutputs(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	for _, alg := range Algorithms {
		for _, v := range Variants {
			static, err := Run(net, alg, v, sc.Cube, smallParams())
			if err != nil {
				t.Fatalf("%s/%s static: %v", alg, v, err)
			}
			bal, err := RunContext(balancedCtx(), net, alg, v, sc.Cube, smallParams())
			if err != nil {
				t.Fatalf("%s/%s balanced: %v", alg, v, err)
			}
			if !bal.Balanced {
				t.Fatalf("%s/%s: balanced run not marked Balanced", alg, v)
			}
			if bal.BalanceChunks <= 0 {
				t.Errorf("%s/%s: no chunks granted", alg, v)
			}
			if static.Balanced || static.BalanceChunks != 0 {
				t.Errorf("%s/%s: static run carries balance stats", alg, v)
			}
			if !reflect.DeepEqual(static.Detection, bal.Detection) {
				t.Errorf("%s/%s: detection diverged from static schedule", alg, v)
			}
			if !reflect.DeepEqual(static.Classification, bal.Classification) {
				t.Errorf("%s/%s: classification diverged from static schedule", alg, v)
			}
		}
	}
}

// A balanced run is a pure function of its inputs: two executions must
// agree bit for bit, timings included.
func TestBalancedDeterministic(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	for _, alg := range Algorithms {
		a, err := RunContext(balancedCtx(), net, alg, Hetero, sc.Cube, smallParams())
		if err != nil {
			t.Fatalf("%s first run: %v", alg, err)
		}
		b, err := RunContext(balancedCtx(), net, alg, Hetero, sc.Cube, smallParams())
		if err != nil {
			t.Fatalf("%s second run: %v", alg, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: balanced runs differ between executions:\n%+v\nvs\n%+v", alg, a, b)
		}
	}
}

// Balancing must degenerate gracefully on a single-processor network:
// the master self-drains every chunk.
func TestBalancedSingleProcessor(t *testing.T) {
	sc := smallScene(t)
	static, err := RunSequential(0.01, PCT, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	bal, err := RunSequentialContext(balancedCtx(), 0.01, PCT, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if !bal.Balanced || bal.BalanceChunks <= 0 {
		t.Fatalf("single-proc balanced run: Balanced=%v chunks=%d", bal.Balanced, bal.BalanceChunks)
	}
	if !reflect.DeepEqual(static.Classification, bal.Classification) {
		t.Error("single-proc balanced classification diverged")
	}
}

// A rank degraded mid-run by the fault layer should shed lines to its
// peers: the dynamic schedule must assign it measurably less work than
// an undegraded balanced run does, and steal accounting must notice.
func TestBalancedDegradedRankShedsWork(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	params := smallParams()
	params.Targets = 8 // enough rounds for the estimator to adapt

	clean, err := RunContext(balancedCtx(), net, UFCLS, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Faults = &fault.Plan{Degrades: []fault.Degrade{
		{Rank: 2, From: 0, To: math.Inf(1), Factor: 25, Attempt: -1},
	}}
	degraded, err := RunContext(balancedCtx(), net, UFCLS, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Detection, degraded.Detection) {
		t.Error("degradation changed the detected targets")
	}
	if degraded.StealEvents == 0 || degraded.ReassignedLines == 0 {
		t.Errorf("degraded run recorded no steals: %d events, %d lines",
			degraded.StealEvents, degraded.ReassignedLines)
	}
}

// TestBalancePropertyAllPlatforms is the cross-platform property sweep:
// on every UMD platform (plus a Thunderhead slice) and every algorithm,
// a balanced run must (a) reproduce the static-WEA baseline's outputs
// exactly and (b) be digest-identical — the whole report, timings
// included — when rerun.
func TestBalancePropertyAllPlatforms(t *testing.T) {
	thunder, err := platform.Thunderhead(8)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*platform.Network{
		platform.FullyHeterogeneous(),
		platform.FullyHomogeneous(),
		platform.PartiallyHeterogeneous(),
		platform.PartiallyHomogeneous(),
		thunder,
	}
	sc := smallScene(t)
	for _, net := range nets {
		net := net
		t.Run(net.Name, func(t *testing.T) {
			t.Parallel()
			for _, alg := range Algorithms {
				static, err := Run(net, alg, Hetero, sc.Cube, smallParams())
				if err != nil {
					t.Fatalf("%s static: %v", alg, err)
				}
				first, err := RunContext(balancedCtx(), net, alg, Hetero, sc.Cube, smallParams())
				if err != nil {
					t.Fatalf("%s balanced: %v", alg, err)
				}
				if !reflect.DeepEqual(static.Detection, first.Detection) ||
					!reflect.DeepEqual(static.Classification, first.Classification) {
					t.Errorf("%s: balanced outputs diverged from the static baseline", alg)
				}
				rerun, err := RunContext(balancedCtx(), net, alg, Hetero, sc.Cube, smallParams())
				if err != nil {
					t.Fatalf("%s balanced rerun: %v", alg, err)
				}
				if !reflect.DeepEqual(first, rerun) {
					t.Errorf("%s: balanced rerun is not digest-identical", alg)
				}
			}
		})
	}
}

// With balancing disabled the context hook must be inert: reports carry
// no balance fields and results match a plain Run.
func TestBalanceDisabledPolicyInert(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	ctx := WithBalance(context.Background(), balance.Policy{}) // disabled
	rep, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(net, ATDCA, Hetero, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Balanced || rep.BalanceChunks != 0 {
		t.Errorf("disabled policy produced balance accounting: %+v", rep)
	}
	if !reflect.DeepEqual(plain, rep) {
		t.Error("disabled policy changed the run report")
	}
}
