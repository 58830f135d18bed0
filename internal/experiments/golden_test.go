package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Review the diff before committing — the goldens pin the simulator's
// numeric output bit-for-bit.
var update = flag.Bool("update", false, "rewrite the golden experiment files")

// goldenCompare byte-compares the JSON encoding of result against
// testdata/<name>. Floats marshal as shortest round-trip decimals, so a
// single-ulp drift anywhere in the virtual-time model changes the bytes
// and fails the test: any refactor of core, mpi, partition or the
// algorithm kernels that moves a number must consciously regenerate the
// goldens with -update.
func goldenCompare(t *testing.T, name string, result any) {
	t.Helper()
	got, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s: %v\n"+
			"generate it with: go test ./internal/experiments -run TestGolden -update", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("experiment output diverges from %s:\n%s\n"+
			"If this change is intentional, regenerate with:\n"+
			"  go test ./internal/experiments -run TestGolden -update\n"+
			"and commit the new golden alongside the change that moved the numbers.",
			path, firstDiff(want, got))
	}
}

// firstDiff renders the first line where want and got disagree, with a
// line of context, so the failure names the exact number that moved.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: golden %d lines, got %d lines", len(wl), len(gl))
}

// TestGoldenNetworkSuite pins Tables 5-7 — wall time, COM/SEQ/PAR
// decomposition and both imbalance metrics for every algorithm variant on
// all four UMD networks — at the fast-config scale.
func TestGoldenNetworkSuite(t *testing.T) {
	res, err := NetworkSuite(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_network_suite.json", res)
}

// TestGoldenThunderhead pins Table 8 / Figure 2 — execution times and
// speedups of the heterogeneous algorithms on growing Thunderhead
// subsets — at the fast-config scale.
func TestGoldenThunderhead(t *testing.T) {
	res, err := Thunderhead(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_thunderhead.json", res)
}

// scheduleCell is one pinned run of TestGoldenSchedules: the root
// timeline, every rank's completion time, the schedule's own accounting
// and a digest of the detection/classification it returned.
type scheduleCell struct {
	Name          string
	WallTime      float64
	Com, Seq, Par float64
	ProcTimes     []float64
	Result        string

	BalanceChunks   int     `json:",omitempty"`
	StealEvents     int     `json:",omitempty"`
	ReassignedLines int     `json:",omitempty"`
	EstimatorDrift  float64 `json:",omitempty"`

	CheckpointSaves    int     `json:",omitempty"`
	CheckpointOverhead float64 `json:",omitempty"`
	ResumedFromRound   int     `json:",omitempty"`

	Imbalance  []float64        `json:",omitempty"`
	Rebalanced []bool           `json:",omitempty"`
	MovedRows  []int            `json:",omitempty"`
	FinalSpans []partition.Span `json:",omitempty"`
}

func cellOf(t *testing.T, name string, rep *core.RunReport) scheduleCell {
	t.Helper()
	var result any = rep.Classification
	if rep.Detection != nil {
		result = rep.Detection
	}
	b, err := json.Marshal(result)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return scheduleCell{
		Name: name, WallTime: rep.WallTime, Com: rep.Com, Seq: rep.Seq, Par: rep.Par,
		ProcTimes: rep.ProcTimes, Result: fmt.Sprintf("%x", sha256.Sum256(b)),
		BalanceChunks: rep.BalanceChunks, StealEvents: rep.StealEvents,
		ReassignedLines: rep.ReassignedLines, EstimatorDrift: rep.EstimatorDrift,
		CheckpointSaves: rep.CheckpointSaves, CheckpointOverhead: rep.CheckpointOverhead,
		ResumedFromRound: rep.ResumedFromRound,
	}
}

// snapshotLog keeps every snapshot a run saved, so a later run can be
// seeded from a mid-run round boundary.
type snapshotLog struct {
	checkpoint.MemStore
	snaps []checkpoint.Snapshot
}

func (l *snapshotLog) Save(s checkpoint.Snapshot) error {
	l.snaps = append(l.snaps, s)
	return l.MemStore.Save(s)
}

// scheduleScene is the scene of BenchmarkBalance with its two parameter
// sets: clean, and "drift" — rank 5 degraded to 6x its modelled cycle time
// for the whole run, the slowdown the WEA model cannot see.
func scheduleScene(t *testing.T) (sc *scene.Scene, clean, drift core.Params) {
	t.Helper()
	cfg := scene.Config{Lines: 256, Samples: 16, Bands: 24, Seed: 20010916}
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean = ScaledParams(core.DefaultParams(), cfg)
	drift = clean
	drift.Faults = &fault.Plan{Degrades: []fault.Degrade{
		{Rank: 5, From: 0, To: math.Inf(1), Factor: 6, Attempt: -1},
	}}
	return sc, clean, drift
}

// TestBalanceReducesDriftImbalance is what the balanced schedule is for:
// under drift on the fully heterogeneous network its max/mean per-rank
// busy time is below the static WEA schedule's, for every algorithm.
func TestBalanceReducesDriftImbalance(t *testing.T) {
	sc, _, drift := scheduleScene(t)
	net := platform.FullyHeterogeneous()
	imbalance := func(ctx context.Context, alg core.Algorithm) float64 {
		rep, err := core.RunContext(ctx, net, alg, core.Hetero, sc.Cube, drift)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		var max, sum float64
		for _, busy := range rep.BusyTimes {
			max = math.Max(max, busy)
			sum += busy
		}
		return max * float64(len(rep.BusyTimes)) / sum
	}
	balanced := core.WithBalance(context.Background(), balance.DefaultPolicy())
	for _, alg := range core.Algorithms {
		st, ba := imbalance(context.Background(), alg), imbalance(balanced, alg)
		if !(ba < st) {
			t.Errorf("%s: drift imbalance %.3f balanced, %.3f static; want balanced below static", alg, ba, st)
		}
		t.Logf("%s: drift imbalance %.2f -> %.2f", alg, st, ba)
	}
}

// TestGoldenSchedules pins what the table goldens do not: the balanced
// schedule (clean and under the BenchmarkBalance drift plan), the
// adaptive schedule on all four UMD networks, and checkpointed and
// resumed runs of the static and balanced schedules.
func TestGoldenSchedules(t *testing.T) {
	sc, clean, drift := scheduleScene(t)
	balanced := core.WithBalance(context.Background(), balance.DefaultPolicy())
	var cells []scheduleCell

	for _, net := range []*platform.Network{platform.FullyHeterogeneous(), platform.FullyHomogeneous()} {
		for _, sp := range []struct {
			name   string
			params core.Params
		}{{"clean", clean}, {"drift", drift}} {
			for _, alg := range core.Algorithms {
				name := fmt.Sprintf("balanced/%s/%s/%s", net.Name, sp.name, alg)
				rep, err := core.RunContext(balanced, net, alg, core.Hetero, sc.Cube, sp.params)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cells = append(cells, cellOf(t, name, rep))
			}
		}
	}

	for _, net := range platform.UMDNetworks() {
		name := "adaptive/" + net.Name
		rep, err := core.Run(net, core.ATDCA, core.Adaptive, sc.Cube, clean)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell := cellOf(t, name, rep)
		cell.Imbalance, cell.Rebalanced = rep.Adaptive.Imbalance, rep.Adaptive.Rebalanced
		cell.MovedRows, cell.FinalSpans = rep.Adaptive.MovedRows, rep.Adaptive.FinalSpans
		cells = append(cells, cell)
	}

	net := platform.FullyHeterogeneous()
	for _, mode := range []struct {
		name string
		ctx  context.Context
	}{{"static", context.Background()}, {"balanced", balanced}} {
		for _, alg := range core.Algorithms {
			log := &snapshotLog{}
			name := fmt.Sprintf("checkpointed/%s/%s", mode.name, alg)
			rep, err := core.RunContext(core.WithCheckpointer(mode.ctx, log), net, alg, core.Hetero, sc.Cube, clean)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cells = append(cells, cellOf(t, name, rep))

			mid := &checkpoint.MemStore{}
			mid.Save(log.snaps[len(log.snaps)/2])
			name = fmt.Sprintf("resumed/%s/%s", mode.name, alg)
			rep, err = core.RunContext(core.WithCheckpointer(mode.ctx, mid), net, alg, core.Hetero, sc.Cube, clean)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cells = append(cells, cellOf(t, name, rep))
		}
	}
	goldenCompare(t, "golden_schedules.json", cells)
}
