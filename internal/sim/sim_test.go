package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scene"
	"repro/internal/sched"
)

var (
	simSeed = flag.Int64("sim.seed", -1, "replay one scenario seed (checked twice; the verdicts must be byte-identical)")
	simN    = flag.Int("sim.n", 0, "override the number of seeds TestSim sweeps")
	simBase = flag.Uint64("sim.base", 1, "first seed of the sweep")
)

// sharedScenes keeps cube generation out of every test's measured loop.
var sharedScenes = NewSceneCache()

func checkSeed(t *testing.T, seed uint64) *Verdict {
	t.Helper()
	v, err := Check(FromSeed(seed), CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
	if err != nil {
		t.Fatalf("seed %d: harness error: %v", seed, err)
	}
	return v
}

// reportFailure shrinks a failing seed and fails the test with the
// minimized scenario and its repro line.
func reportFailure(t *testing.T, seed uint64, v *Verdict) {
	t.Helper()
	res, err := Minimize(FromSeed(seed), CheckOptions{Scenes: sharedScenes}, 60)
	if err != nil {
		t.Errorf("seed %d violated invariants:\n%s\nrepro: %s\n(shrink failed: %v)",
			seed, v, ReproLine(seed), err)
		return
	}
	t.Errorf("seed %d violated invariants:\n%s", seed, res.Report())
}

// TestSim sweeps seeded scenarios through the whole stack. With
// -sim.seed=N it replays that one seed twice and asserts the verdicts
// are byte-identical — the repro path the shrinker prints.
func TestSim(t *testing.T) {
	if *simSeed >= 0 {
		seed := uint64(*simSeed)
		v1 := checkSeed(t, seed)
		v2 := checkSeed(t, seed)
		if v1.String() != v2.String() {
			t.Fatalf("seed %d is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", seed, v1, v2)
		}
		t.Logf("\n%s", v1)
		if !v1.OK() {
			reportFailure(t, seed, v1)
		}
		return
	}
	n := *simN
	if n == 0 {
		n = 40
		if testing.Short() {
			n = 25
		}
	}
	for i := 0; i < n; i++ {
		seed := *simBase + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if v := checkSeed(t, seed); !v.OK() {
				reportFailure(t, seed, v)
			}
		})
	}
}

// TestScenarioDeterministic asserts seed → scenario expansion is pure.
func TestScenarioDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d expanded to different scenarios", seed)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d rendered differently across expansions", seed)
		}
	}
}

// TestVerdictDeterministic asserts the full check pipeline — run, crash,
// resume, digest, render — is byte-reproducible for one seed.
func TestVerdictDeterministic(t *testing.T) {
	const seed = 3
	v1 := checkSeed(t, seed)
	v2 := checkSeed(t, seed)
	if v1.String() != v2.String() {
		t.Fatalf("verdict for seed %d changed between runs:\n--- first ---\n%s\n--- second ---\n%s", seed, v1, v2)
	}
}

// TestBrokenInvariantIsCaughtAndShrunk wires a deliberately false
// invariant through CheckOptions.Extra and asserts the harness catches
// it, minimizes the scenario, and reports the repro line — the
// machinery a real invariant breach would ride.
func TestBrokenInvariantIsCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking pass is slow; run without -short")
	}
	const seed = 7
	opts := CheckOptions{
		Scenes: sharedScenes,
		Extra: func(o *Outcome) []string {
			// "No job ever completes" — false by construction.
			for _, jo := range o.Jobs {
				if jo.State == sched.StateCompleted {
					return []string{fmt.Sprintf("injected: job %s completed", jo.Label)}
				}
			}
			return nil
		},
	}
	v, err := Check(FromSeed(seed), opts)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if v.OK() {
		t.Fatalf("broken invariant was not caught:\n%s", v)
	}

	res, err := Minimize(FromSeed(seed), opts, 60)
	if err != nil {
		t.Fatalf("shrink failed: %v", err)
	}
	if res.Verdict.OK() {
		t.Fatalf("shrunk scenario no longer fails:\n%s", res.Verdict)
	}
	if len(res.Scenario.Crashes) != 0 || len(res.Scenario.Pipelines) != 0 {
		t.Errorf("shrink left irrelevant structure: %d crashes, %d pipelines\n%s",
			len(res.Scenario.Crashes), len(res.Scenario.Pipelines), res.Scenario)
	}
	if got, want := len(res.Scenario.Jobs), 2; got > want {
		t.Errorf("shrink left %d jobs, want <= %d:\n%s", got, want, res.Scenario)
	}
	report := res.Report()
	if want := ReproLine(seed); !strings.Contains(report, want) {
		t.Errorf("shrink report misses the repro line %q:\n%s", want, report)
	}
}

// overloadScenario is a handcrafted overload exercise: a small worker
// pool behind a shallow queue and a submit storm with doomed deadlines —
// queue-full rejections, lazy expiry and the admission balance in one
// scenario.
func overloadScenario() *Scenario {
	sc := scene.Config{Lines: 24, Samples: 16, Bands: 8, Seed: 1}
	return &Scenario{
		Seed:       0,
		Workers:    2,
		QueueDepth: 6,
		Jobs: []JobPlan{
			{Label: "j0", Scene: sc, Mode: sched.ModeSequential, Algorithm: core.ATDCA, Targets: 4},
			{Label: "j1", Scene: sc, Mode: sched.ModeRun, Algorithm: core.UFCLS,
				Variant: core.Hetero, Network: "fully-het", Targets: 5},
			{Label: "j2", Scene: sc, Mode: sched.ModeSequential, Algorithm: core.PCT,
				Targets: 4, Priority: sched.Interactive},
		},
		Storm: &StormPlan{Jobs: 8, Doomed: 2},
	}
}

// TestOverloadScenario drives the handcrafted storm through the checker,
// both crash-free and with a mid-run crash/restart, and asserts every
// invariant holds: admission balance and lazy expiry.
func TestOverloadScenario(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		t.Parallel()
		v, err := Check(overloadScenario(), CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		if !v.OK() {
			t.Fatalf("storm invariants failed:\n%s", v)
		}
	})
	t.Run("crash", func(t *testing.T) {
		t.Parallel()
		scn := overloadScenario()
		scn.Crashes = []CrashPoint{{Kind: TrigSettled, Settle: 1, Tear: TearTruncate, TearFrac: 0.5}}
		v, err := Check(scn, CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		if !v.OK() {
			t.Fatalf("storm invariants failed across a crash:\n%s", v)
		}
	})
}

// TestOverloadRejectsPipelines asserts the harness refuses the one
// combination whose accounting cannot balance: pipelines submit stage
// jobs inside the flow engine, invisible to the admission tally.
func TestOverloadRejectsPipelines(t *testing.T) {
	scn := overloadScenario()
	scn.Pipelines = []PipelinePlan{{Label: "p0", Scene: scn.Jobs[0].Scene}}
	if _, err := Run(scn, Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("storm scenario with pipelines was accepted; want a harness error")
	}
}

// TestSeedsDrawStorm asserts the generator actually emits storm plans —
// and that every one it emits is non-degenerate and pipeline-free.
func TestSeedsDrawStorm(t *testing.T) {
	drawn := 0
	for seed := uint64(1); seed <= 100; seed++ {
		s := FromSeed(seed)
		if s.Storm == nil {
			continue
		}
		drawn++
		if len(s.Pipelines) != 0 {
			t.Errorf("seed %d: storm scenario carries %d pipelines", seed, len(s.Pipelines))
		}
		if s.Storm.Jobs < 6 || s.Storm.Doomed < 1 {
			t.Errorf("seed %d: degenerate storm plan %+v", seed, s.Storm)
		}
	}
	if drawn == 0 {
		t.Fatal("no seed in 1..100 drew a storm plan")
	}
	t.Logf("%d/100 seeds drew storm plans", drawn)
}

// TestNonStormScenariosPinned pins the generator: the SHA-256 over the
// rendered scenarios of every seed in 1..200 that draws no storm. A
// change to the storm plan may move the seeds that draw one, but every
// other scenario must stay byte-identical.
func TestNonStormScenariosPinned(t *testing.T) {
	const (
		wantN      = 147
		wantDigest = "ab2012e0dbd191e31fcbafd5d3eb8810a9c946c3ac493e74ba2df03b684bff63"
	)
	h := sha256.New()
	n := 0
	for seed := uint64(1); seed <= 200; seed++ {
		s := FromSeed(seed)
		if s.Storm != nil {
			continue
		}
		n++
		fmt.Fprint(h, s.String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); n != wantN || got != wantDigest {
		t.Fatalf("%d non-storm scenarios digest to %s, want %d digesting to %s", n, got, wantN, wantDigest)
	}
}

// TestSeedsDrawBalance asserts the generator actually emits
// balance-enabled jobs — and only on static ModeRun plans, the one
// schedule that consumes the policy.
func TestSeedsDrawBalance(t *testing.T) {
	drawn := 0
	for seed := uint64(1); seed <= 100; seed++ {
		for _, j := range FromSeed(seed).Jobs {
			if !j.Balance {
				continue
			}
			drawn++
			if j.Mode != sched.ModeRun || j.Variant == core.Adaptive {
				t.Errorf("seed %d: balanced job %s is %s/%s", seed, j.Label, j.Mode, j.Variant)
			}
		}
	}
	if drawn == 0 {
		t.Fatal("no seed in 1..100 drew a balance-enabled job")
	}
	t.Logf("%d balance-enabled jobs drawn across 100 seeds", drawn)
}

// balancedScenario is a handcrafted balance-heavy workload: every
// algorithm scheduled demand-driven, one under a checkpoint, one with an
// injected degradation, plus a duplicate to exercise the cache.
func balancedScenario() *Scenario {
	sc := scene.Config{Lines: 32, Samples: 16, Bands: 12, Seed: 1}
	return &Scenario{
		Seed:       0,
		Workers:    2,
		QueueDepth: 16,
		Jobs: []JobPlan{
			{Label: "j0", Scene: sc, Mode: sched.ModeRun, Algorithm: core.ATDCA,
				Variant: core.Hetero, Network: "fully-het", Targets: 5, Balance: true},
			{Label: "j1", Scene: sc, Mode: sched.ModeRun, Algorithm: core.UFCLS,
				Variant: core.Homo, Network: "fully-homo", Targets: 5, Balance: true},
			{Label: "j2", Scene: sc, Mode: sched.ModeRun, Algorithm: core.PCT,
				Variant: core.Hetero, Network: "part-het", Targets: 4,
				Balance: true, Checkpoint: true},
			{Label: "j3", Scene: sc, Mode: sched.ModeRun, Algorithm: core.MORPH,
				Variant: core.Hetero, Network: "part-homo", Targets: 4, Balance: true,
				Faults: &fault.Plan{Degrades: []fault.Degrade{
					{Rank: 2, From: 0, To: 1, Factor: 4},
				}}},
			{Label: "j4", Scene: sc, Mode: sched.ModeRun, Algorithm: core.ATDCA,
				Variant: core.Hetero, Network: "fully-het", Targets: 5, Balance: true,
				DuplicateOf: "j0"},
		},
	}
}

// TestBalancedScenario drives the handcrafted balance-heavy plan through
// the checker, crash-free and across a mid-run crash/restart: balanced
// runs must satisfy every determinism invariant the static schedule
// does — replayed digests match the baseline byte for byte.
func TestBalancedScenario(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		t.Parallel()
		v, err := Check(balancedScenario(), CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		if !v.OK() {
			t.Fatalf("balanced invariants failed:\n%s", v)
		}
	})
	t.Run("crash", func(t *testing.T) {
		t.Parallel()
		scn := balancedScenario()
		scn.Crashes = []CrashPoint{
			{Kind: TrigCheckpoint, Job: "j2", Round: 1, Tear: TearTruncate, TearFrac: 0.7},
		}
		v, err := Check(scn, CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		if !v.OK() {
			t.Fatalf("balanced invariants failed across a crash:\n%s", v)
		}
	})
}

// TestTornJournalSurvivesEveryTearOffset exhaustively tears one
// scenario's phase-0 journal at every fraction in a coarse grid and
// asserts the invariants hold at each — the property the journal's
// valid-prefix truncation on reopen exists to protect.
func TestTornJournalSurvivesEveryTearOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("tear sweep is slow; run without -short")
	}
	base := FromSeed(11)
	base.Crashes = []CrashPoint{{Kind: TrigSettled, Settle: 1, Tear: TearTruncate}}
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		scn := base.clone()
		scn.Crashes[0].TearFrac = frac
		v, err := Check(scn, CheckOptions{Dir: t.TempDir(), Scenes: sharedScenes})
		if err != nil {
			t.Fatalf("frac %.1f: harness error: %v", frac, err)
		}
		if !v.OK() {
			t.Errorf("frac %.1f: invariants failed:\n%s", frac, v)
		}
	}
}
