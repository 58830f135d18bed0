package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

func TestRunWithTraceProducesTimeline(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 3)
	params := smallParams()
	params.Trace = true
	rep, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline == "" {
		t.Fatal("trace requested but timeline empty")
	}
	for _, want := range []string{"p1", "p3", "#", "virtual time"} {
		if !strings.Contains(rep.Timeline, want) {
			t.Errorf("timeline missing %q:\n%s", want, rep.Timeline)
		}
	}
	// Without the flag, no timeline.
	params.Trace = false
	rep, err = Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline != "" {
		t.Error("timeline present without trace flag")
	}
}

func TestRunAdaptiveReport(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	params := smallParams()
	rep, err := RunAdaptive(net, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Variant != "Adaptive" || rep.Algorithm != ATDCA {
		t.Errorf("report header %+v", rep.RunReport)
	}
	if rep.Detection == nil || len(rep.Detection.Targets) != params.Targets {
		t.Error("adaptive detection missing")
	}
	if rep.Trace == nil || len(rep.Trace.Imbalance) != params.Targets {
		t.Error("adaptive trace missing")
	}
	if rep.WallTime <= 0 || rep.DAll < 1 {
		t.Errorf("timings wrong: wall=%v dall=%v", rep.WallTime, rep.DAll)
	}
	// Detections match the static run.
	static, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range static.Detection.Targets {
		a, b := static.Detection.Targets[i], rep.Detection.Targets[i]
		if a.Line != b.Line || a.Sample != b.Sample {
			t.Fatalf("target %d differs between static and adaptive", i)
		}
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 2)
	if _, err := RunAdaptive(nil, sc.Cube, smallParams()); err == nil {
		t.Error("nil network: expected error")
	}
	if _, err := RunAdaptive(net, nil, smallParams()); err == nil {
		t.Error("nil cube: expected error")
	}
}

func TestRunAdaptiveSingleNode(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 1)
	rep, err := RunAdaptive(net, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DAll != 1 || rep.DMinus != 1 {
		t.Error("single-node imbalance should be 1")
	}
}

func TestRunWithScales(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 2)
	params := smallParams()
	base, err := Run(net, MORPH, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	params.WorkScale = 10
	params.DataScale = 10
	scaled, err := Run(net, MORPH, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.WallTime < 5*base.WallTime {
		t.Errorf("work scale 10 produced wall %v vs base %v", scaled.WallTime, base.WallTime)
	}
	if scaled.Com <= base.Com {
		t.Errorf("data scale 10 did not grow COM: %v vs %v", scaled.Com, base.Com)
	}
}

// Every run that is counted as started must end up counted exactly once
// as done or failed — including the error exits that used to return
// without reporting: an adaptive run whose fault plan names a rank the
// network does not have.
func TestRunAccountingBalances(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 3)
	m := NewMetrics(telemetry.NewRegistry())
	ctx := WithMetrics(context.Background(), m)
	bad := smallParams()
	bad.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 7, At: 0.001}}}

	done := 0
	if _, err := RunAdaptiveContext(ctx, net, sc.Cube, bad); err == nil {
		t.Fatal("out-of-range fault plan: expected error")
	}
	if _, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, bad); err == nil {
		t.Fatal("out-of-range fault plan: expected error")
	}
	if _, err := RunAdaptiveContext(ctx, net, sc.Cube, smallParams()); err != nil {
		t.Fatal(err)
	}
	done++
	if _, err := RunContext(ctx, net, PCT, Homo, sc.Cube, smallParams()); err != nil {
		t.Fatal(err)
	}
	done++

	started := m.runsStarted.With(string(ATDCA)).Value() + m.runsStarted.With(string(PCT)).Value()
	if failed := m.runsFailed.Value(); started != float64(done)+failed || failed != 2 {
		t.Errorf("runs started %v != done %d + failed %v (want 2 failed)", started, done, failed)
	}
}
