package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
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
	rep, err := Run(net, ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Variant != Adaptive || rep.Algorithm != ATDCA {
		t.Errorf("report header %+v", rep)
	}
	if rep.Detection == nil || len(rep.Detection.Targets) != params.Targets {
		t.Error("adaptive detection missing")
	}
	if rep.Adaptive == nil || len(rep.Adaptive.Imbalance) != params.Targets {
		t.Error("adaptive trace missing")
	}
	if rep.WallTime <= 0 || rep.DAll < 1 {
		t.Errorf("timings wrong: wall=%v dall=%v", rep.WallTime, rep.DAll)
	}
	// Detections match the static run, which carries no trace.
	static, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(static); err != nil || bytes.Contains(b, []byte(`"Adaptive"`)) {
		t.Errorf("static report serializes an adaptive trace: %s (%v)", b, err)
	}
	for i := range static.Detection.Targets {
		a, b := static.Detection.Targets[i], rep.Detection.Targets[i]
		if a.Line != b.Line || a.Sample != b.Sample {
			t.Fatalf("target %d differs between static and adaptive", i)
		}
	}
}

// snapshotLog keeps every snapshot a run saves, so a test can rewind the
// store to any round boundary.
type snapshotLog struct {
	checkpoint.MemStore
	snaps []checkpoint.Snapshot
}

func (l *snapshotLog) Save(s checkpoint.Snapshot) error {
	l.snaps = append(l.snaps, s)
	return l.MemStore.Save(s)
}

// An Adaptive run checkpoints like any other: one snapshot per round, and
// a run resumed from a mid-run snapshot detects the uninterrupted run's
// targets, tracing only the rounds it ran.
func TestRunAdaptiveResumesFromCheckpoint(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	params := smallParams()
	plain, err := Run(net, ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}

	log := &snapshotLog{}
	clean, err := RunContext(WithCheckpointer(context.Background(), log), net, ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, plain, clean)
	if len(log.snaps) != params.Targets || clean.CheckpointSaves != params.Targets {
		t.Fatalf("saved %d snapshots (report says %d), want one per round (%d)", len(log.snaps), clean.CheckpointSaves, params.Targets)
	}

	const round = 2
	mid := &checkpoint.MemStore{}
	mid.Save(log.snaps[round-1])
	resumed, err := RunContext(WithCheckpointer(context.Background(), mid), net, ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, plain, resumed)
	if resumed.ResumedFromRound != round {
		t.Errorf("resumed from round %d, want %d", resumed.ResumedFromRound, round)
	}
	if n := len(resumed.Adaptive.Imbalance); n != params.Targets-round {
		t.Errorf("resumed trace has %d rounds, want %d", n, params.Targets-round)
	}
}

// Params.Trace records an Adaptive run's timeline like any other run's.
func TestRunAdaptiveTraced(t *testing.T) {
	sc := smallScene(t)
	params := smallParams()
	params.Trace = true
	rep, err := Run(smallNet(t, 3), ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline == "" || len(rep.TraceEvents) == 0 {
		t.Fatalf("traced adaptive run: timeline %d bytes, %d events", len(rep.Timeline), len(rep.TraceEvents))
	}
	if rep.Adaptive == nil {
		t.Error("traced adaptive run lost its convergence trace")
	}
}

// Adaptive measures its own balance: a balance policy on the context
// leaves its report byte-identical.
func TestRunAdaptiveIgnoresBalance(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 4)
	plain, err := Run(net, ATDCA, Adaptive, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	bal, err := RunContext(balancedCtx(), net, ATDCA, Adaptive, sc.Cube, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	a, errA := json.Marshal(plain)
	b, errB := json.Marshal(bal)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("balance policy changed the Adaptive report:\n%s\n%s", a, b)
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 2)
	if _, err := Run(nil, ATDCA, Adaptive, sc.Cube, smallParams()); err == nil {
		t.Error("nil network: expected error")
	}
	if _, err := Run(net, ATDCA, Adaptive, nil, smallParams()); err == nil {
		t.Error("nil cube: expected error")
	}
	for _, alg := range []Algorithm{UFCLS, PCT, MORPH} {
		if _, err := Run(net, alg, Adaptive, sc.Cube, smallParams()); err == nil || !strings.Contains(err.Error(), "ATDCA only") {
			t.Errorf("%s/Adaptive: error %v, want the ATDCA-only refusal", alg, err)
		}
	}
}

// Check is the one statement of which variant runs which algorithm.
func TestVariantCheck(t *testing.T) {
	for _, v := range Variants {
		for _, alg := range Algorithms {
			if err := v.Check(alg); err != nil {
				t.Errorf("%s.Check(%s) = %v", v, alg, err)
			}
		}
	}
	if err := Adaptive.Check(ATDCA); err != nil {
		t.Errorf("Adaptive.Check(ATDCA) = %v", err)
	}
	if err := Adaptive.Check(PCT); err == nil {
		t.Error("Adaptive.Check(PCT) accepted")
	}
	if err := Variant("Oracle").Check(ATDCA); err == nil {
		t.Error("unknown variant accepted")
	}
	if slices.Contains(Variants, Adaptive) {
		t.Error("Variants lists Adaptive; it holds the paper's two")
	}
	if _, err := ParseVariant("adaptive"); err == nil {
		t.Error(`ParseVariant("adaptive") accepted`)
	}
}

func TestRunAdaptiveSingleNode(t *testing.T) {
	sc := smallScene(t)
	net := smallNet(t, 1)
	rep, err := Run(net, ATDCA, Adaptive, sc.Cube, smallParams())
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
	if _, err := RunContext(ctx, net, ATDCA, Adaptive, sc.Cube, bad); err == nil {
		t.Fatal("out-of-range fault plan: expected error")
	}
	if _, err := RunContext(ctx, net, ATDCA, Hetero, sc.Cube, bad); err == nil {
		t.Fatal("out-of-range fault plan: expected error")
	}
	if _, err := RunContext(ctx, net, ATDCA, Adaptive, sc.Cube, smallParams()); err != nil {
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
