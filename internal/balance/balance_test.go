package balance

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/vtime"
)

// testNet builds a small heterogeneous platform: rank i's cycle-time
// cycles between three speeds, links at 10 MB/s.
func testNet(t *testing.T, p int) *platform.Network {
	t.Helper()
	procs := make([]platform.Processor, p)
	links := make([][]float64, p)
	for i := range procs {
		procs[i] = platform.Processor{ID: i + 1, CycleTime: 0.004 * float64(1+i%3), MemoryMB: 1024}
		links[i] = make([]float64, p)
		for j := range links[i] {
			if i != j {
				links[i][j] = 10
			}
		}
	}
	n, err := platform.New("test", procs, links, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testCube fills a deterministic scene.
func testCube(t *testing.T, lines, samples, bands int) *cube.Cube {
	t.Helper()
	f := cube.MustNew(lines, samples, bands)
	for i := range f.Data {
		f.Data[i] = float32(i%97) / 97
	}
	return f
}

// evenSpans is the static reference plan: lines split evenly in rank
// order (remainder to the leaders).
func evenSpans(lines, ranks int) []partition.Span {
	spans := make([]partition.Span, ranks)
	at := 0
	for i := range spans {
		n := lines / ranks
		if i < lines%ranks {
			n++
		}
		spans[i] = partition.Span{Lo: at, Hi: at + n}
		at += n
	}
	return spans
}

// sumWork is a per-line fold whose result depends on exactly which lines
// a chunk owns: any coverage bug (lost, duplicated or misaligned lines)
// changes the total.
func sumWork(c *mpi.Comm) Work {
	return func(view *cube.Cube, owned, halo partition.Span) (any, int) {
		var sum float64
		for l := owned.Lo; l < owned.Hi; l++ {
			row := l - halo.Lo
			for s := 0; s < view.Samples; s++ {
				for _, v := range view.Pixel(row, s) {
					sum += float64(v) * float64(l+1)
				}
			}
		}
		c.Compute(float64(owned.Len()*view.Samples*view.Bands), vtime.Par)
		return sum, 8
	}
}

// refSum computes what the phase total must be, independent of schedule.
func refSum(f *cube.Cube) float64 {
	var sum float64
	for l := 0; l < f.Lines; l++ {
		for s := 0; s < f.Samples; s++ {
			for _, v := range f.Pixel(l, s) {
				sum += float64(v) * float64(l+1)
			}
		}
	}
	return sum
}

// phaseOutcome is one run's master-side record, for cross-run compares.
type phaseOutcome struct {
	Total    float64
	Partials []Partial
	Stats    Stats
}

// runPhases executes `phases` identical guided phases on a fresh world
// and returns the master's outcome.
func runPhases(t *testing.T, net *platform.Network, f *cube.Cube, phases int, plan *fault.Plan) phaseOutcome {
	t.Helper()
	w := mpi.NewWorld(net)
	if plan != nil {
		if err := w.SetFaults(plan, 0); err != nil {
			t.Fatal(err)
		}
	}
	static := evenSpans(f.Lines, net.Size())
	b := New(net, static, f)
	res, err := w.Run(func(c *mpi.Comm) any {
		var out phaseOutcome
		for i := 0; i < phases; i++ {
			parts := RunPhase(c, b, Phase{Lines: f.Lines, FlopsPerLine: float64(f.Samples * f.Bands)}, sumWork(c))
			if c.Root() {
				for _, p := range parts {
					out.Total += p.Payload.(float64)
				}
				out.Partials = append(out.Partials, parts...)
			}
		}
		if c.Root() {
			out.Stats = b.Stats()
			return out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values[0].(phaseOutcome)
}

// TestRunPhaseComputesEveryLineOnce asserts the structural coverage
// property: the granted chunks tile the scene, so a line-weighted fold
// over the partials equals the sequential reference exactly.
func TestRunPhaseComputesEveryLineOnce(t *testing.T) {
	f := testCube(t, 40, 8, 6)
	out := runPhases(t, testNet(t, 4), f, 3, nil)
	want := 3 * refSum(f)
	if math.Abs(out.Total-want) > 1e-9 {
		t.Errorf("balanced fold = %v, want %v", out.Total, want)
	}
	st := out.Stats
	if st.Phases != 3 || st.Chunks < 3 {
		t.Errorf("stats %+v: want 3 phases and at least one chunk each", st)
	}
	var assigned int
	for _, n := range st.AssignedLines {
		assigned += n
	}
	if assigned != 3*f.Lines {
		t.Errorf("assigned %d lines across 3 phases of %d", assigned, f.Lines)
	}
}

// TestRunPhaseDeterministic asserts two fresh worlds produce
// byte-identical partials and accounting.
func TestRunPhaseDeterministic(t *testing.T) {
	f := testCube(t, 40, 8, 6)
	a := runPhases(t, testNet(t, 4), f, 3, nil)
	b := runPhases(t, testNet(t, 4), f, 3, nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("balanced phases differ between runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunPhaseSingleRank asserts the degenerate world works: the master
// self-drains every chunk.
func TestRunPhaseSingleRank(t *testing.T) {
	f := testCube(t, 24, 8, 6)
	out := runPhases(t, testNet(t, 1), f, 1, nil)
	if math.Abs(out.Total-refSum(f)) > 1e-9 {
		t.Errorf("single-rank fold = %v, want %v", out.Total, refSum(f))
	}
	if out.Stats.AssignedLines[0] != f.Lines {
		t.Errorf("master self-drained %d of %d lines", out.Stats.AssignedLines[0], f.Lines)
	}
	if out.Stats.StealEvents != 0 {
		t.Error("single-rank run recorded steals against itself")
	}
}

// TestRunPhaseTaskMode asserts a fixed task list is handed out at exactly
// the given boundaries: partition-sensitive phases rely on this to stay
// byte-identical with the static schedule.
func TestRunPhaseTaskMode(t *testing.T) {
	f := testCube(t, 30, 8, 6)
	net := testNet(t, 4)
	static := evenSpans(f.Lines, net.Size())
	tasks := append([]partition.Span{{Lo: 0, Hi: 0}}, static...) // empty task must be filtered
	w := mpi.NewWorld(net)
	b := New(net, static, f)
	res, err := w.Run(func(c *mpi.Comm) any {
		parts := RunPhase(c, b, Phase{Lines: f.Lines, Tasks: tasks, FlopsPerLine: 100}, sumWork(c))
		if !c.Root() {
			return nil
		}
		return parts
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := res.Values[0].([]Partial)
	if len(parts) != len(static) {
		t.Fatalf("got %d partials for %d tasks", len(parts), len(static))
	}
	for i, p := range parts {
		if p.Span != static[i] {
			t.Errorf("task %d ran at %v, want the static span %v", i, p.Span, static[i])
		}
	}
}

// TestDegradedRankShedsAssignedLines is the fault-interplay property: a
// rank the fault layer slows down must end the run with measurably fewer
// assigned lines than its static share, the work flowing to its peers,
// and the steal accounting must record the movement.
func TestDegradedRankShedsAssignedLines(t *testing.T) {
	f := testCube(t, 64, 8, 6)
	net := testNet(t, 4)
	const phases = 6
	plan := &fault.Plan{Degrades: []fault.Degrade{
		{Rank: 2, From: 0, To: math.Inf(1), Factor: 20, Attempt: -1},
	}}

	clean := runPhases(t, net, f, phases, nil)
	degraded := runPhases(t, net, f, phases, plan)

	if math.Abs(degraded.Total-clean.Total) > 1e-9 {
		t.Errorf("degradation changed the computed fold: %v vs %v", degraded.Total, clean.Total)
	}
	// "Measurably fewer": at least a quarter of the static share shed.
	// The grain floor keeps an idle-but-alive rank pulling minimum-size
	// chunks, so the share never drops to zero.
	staticShare := phases * evenSpans(f.Lines, net.Size())[2].Len()
	got := degraded.Stats.AssignedLines[2]
	if got > staticShare*3/4 {
		t.Errorf("degraded rank kept %d of its %d-line static share; want at least a quarter shed", got, staticShare)
	}
	if got >= clean.Stats.AssignedLines[2] {
		t.Errorf("degraded rank was assigned %d lines, clean run %d; want fewer",
			got, clean.Stats.AssignedLines[2])
	}
	if degraded.Stats.StealEvents == 0 || degraded.Stats.ReassignedLines == 0 {
		t.Errorf("shedding left no steal trace: %+v", degraded.Stats)
	}
	// Shedding must conserve work: every line still computed exactly once.
	var assigned int
	for _, n := range degraded.Stats.AssignedLines {
		assigned += n
	}
	if assigned != phases*f.Lines {
		t.Errorf("degraded run assigned %d lines, want %d", assigned, phases*f.Lines)
	}
}

// TestEstimatorLearnsAcrossPhases asserts the first phase's observations
// change the second phase's opening grants: the estimator carries state
// across phases, which is the whole point of online re-estimation.
func TestEstimatorLearnsAcrossPhases(t *testing.T) {
	f := testCube(t, 64, 8, 6)
	net := testNet(t, 4)
	plan := &fault.Plan{Degrades: []fault.Degrade{
		{Rank: 1, From: 0, To: math.Inf(1), Factor: 10, Attempt: -1},
	}}
	clean := runPhases(t, net, f, 4, nil)
	out := runPhases(t, net, f, 4, plan)
	// Rank 1 runs 10x slow from the first chunk on; once the estimator
	// has observed that, its grants shrink below what the clean run gave
	// the same rank.
	if out.Stats.AssignedLines[1] >= clean.Stats.AssignedLines[1] {
		t.Errorf("estimator never shrank the slow rank's grants: degraded %v vs clean %v",
			out.Stats.AssignedLines, clean.Stats.AssignedLines)
	}
	if out.Stats.EstimatorDrift <= 0 {
		t.Error("a 10x-degraded rank produced zero estimator drift")
	}
}

// TestHaloViewsCoverOwnedSpan asserts windowed phases get views extended
// by the halo, clamped at the scene edges.
func TestHaloViewsCoverOwnedSpan(t *testing.T) {
	f := testCube(t, 24, 8, 6)
	net := testNet(t, 3)
	w := mpi.NewWorld(net)
	b := New(net, evenSpans(f.Lines, net.Size()), f)
	const halo = 2
	_, err := w.Run(func(c *mpi.Comm) any {
		RunPhase(c, b, Phase{Lines: f.Lines, Halo: halo, FlopsPerLine: 100},
			func(view *cube.Cube, owned, hs partition.Span) (any, int) {
				wantLo, wantHi := owned.Lo-halo, owned.Hi+halo
				if wantLo < 0 {
					wantLo = 0
				}
				if wantHi > f.Lines {
					wantHi = f.Lines
				}
				if hs.Lo != wantLo || hs.Hi != wantHi {
					t.Errorf("halo span %v for owned %v, want [%d,%d)", hs, owned, wantLo, wantHi)
				}
				if view.Lines != hs.Len() {
					t.Errorf("view holds %d rows for halo %v", view.Lines, hs)
				}
				c.Compute(float64(owned.Len()), vtime.Par)
				return nil, 0
			})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
