package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// A tail percentile is reported only with at least ten samples beyond it:
// p90 needs 100 samples, p99 needs 1000.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{0, 0.9, 0}, {99, 0.9, 9}, {100, 0.9, 10}, {240, 0.9, 24}, {999, 0.99, 9}, {1000, 0.99, 10}, {20, 0.5, 10}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "submit", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "poll", StartNS: 20, EndNS: 50, Parent: 0},  // overlaps submit: counted once
		{Name: "poll", StartNS: 60, EndNS: 70, Parent: 0},  //
		{Name: "inner", StartNS: 62, EndNS: 66, Parent: 3}, // grandchild: not the root's
		{Name: "late", StartNS: 90, EndNS: 120, Parent: 0}, // clipped to the parent
	}
	want := []int64{100 - (40 + 10 + 10), 20, 30, 10 - 4, 4, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestAppendSpansRebasesParents(t *testing.T) {
	a := []span{{Name: "op", Parent: -1}, {Name: "submit", Parent: 0}}
	got := appendSpans(append([]span(nil), a...), a)
	if got[2].Parent != -1 || got[3].Parent != 2 {
		t.Errorf("parents after append = %d, %d; want -1, 2", got[2].Parent, got[3].Parent)
	}
}

const promBefore = `# HELP hyperhet_mpi_messages_total Messages.
# TYPE hyperhet_mpi_messages_total counter
hyperhet_mpi_messages_total{kind="recv",rank="0"} 90
hyperhet_mpi_messages_total{kind="send",rank="0"} 60
hyperhet_mpi_messages_total{kind="send",rank="1"} 6
hyperhet_mpi_bytes_total{direction="sent",rank="0"} 4.025592e+06
hyperhet_sched_journal_errors_total 0
`

const promAfter = `hyperhet_mpi_messages_total{kind="recv",rank="0"} 190
hyperhet_mpi_messages_total{kind="send",rank="0"} 160
hyperhet_mpi_messages_total{kind="send",rank="1"} 16
hyperhet_mpi_messages_total{kind="send",rank="2"} 7
hyperhet_mpi_bytes_total{direction="sent",rank="0"} 5.025592e+06
hyperhet_sched_journal_errors_total 0
hyperhet_sched_job_seconds_bucket{class="batch",le="+Inf"} 3
`

func TestPromParseAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 5 || len(after) != 7 {
		t.Fatalf("parsed %d and %d series, want 5 and 7", len(before), len(after))
	}
	d := promDelta(before, after)
	if got := d.sum("hyperhet_mpi_messages_total", `kind="send"`); got != 100+10+7 {
		t.Errorf("send delta = %v, want 117 (a series new in the second scrape counts from zero)", got)
	}
	if got := d.sum("hyperhet_mpi_messages_total"); got != 217 {
		t.Errorf("all-kinds delta = %v, want 217", got)
	}
	if got := d.sum("hyperhet_mpi_bytes_total", `direction="sent"`); got != 1e6 {
		t.Errorf("bytes delta = %v, want 1e6", got)
	}
	if got := d.sum("hyperhet_mpi_messages"); got != 0 {
		t.Errorf("a family-name prefix matched: %v", got)
	}
	for _, bad := range []string{"no_value\n", "name{a=\"b c\"}\n", "name notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range allWorkloads() {
		a, b := newOpSource(w, 7), newOpSource(w, 7)
		other := newOpSource(w, 8)
		var orderA, orderOther []int
		for i := 0; i < 2*len(w.Cycle); i++ {
			x := a.next()
			if y := b.next(); x != y {
				t.Fatalf("%s: op %d differs between two sources of one seed", w.Name, i)
			}
			orderA = append(orderA, x)
			orderOther = append(orderOther, other.next())
		}
		if reflect.DeepEqual(orderA, orderOther) {
			t.Errorf("%s: seeds 7 and 8 give the same order", w.Name)
		}
		// Every cycle is the same multiset, whatever the seed.
		want := append([]int(nil), w.Cycle...)
		sort.Ints(want)
		for _, order := range [][]int{orderA[:len(w.Cycle)], orderA[len(w.Cycle):], orderOther[:len(w.Cycle)]} {
			got := append([]int(nil), order...)
			sort.Ints(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a cycle is not a permutation of the workload's cycle", w.Name)
			}
		}
		if !a.atCycleStart() {
			t.Errorf("%s: two whole cycles dealt, yet not at a cycle start", w.Name)
		}
	}
}

func TestOpenScheduleDeterministicAndAtTheNamedRate(t *testing.T) {
	w := mixedOpen()
	a, b := openSchedule(w, 3, 10), openSchedule(w, 3, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, openSchedule(w, 4, 10)) {
		t.Error("seeds 3 and 4 give the same schedule")
	}
	if len(a) != 1200 || len(a)%len(w.Cycle) != 0 {
		t.Errorf("%d arrivals for 10 s at %v/s, want 1200 in whole cycles", len(a), w.OpenRate)
	}
	heavy := 0
	for i, arr := range a {
		if i > 0 && arr.DueNS < a[i-1].DueNS {
			t.Fatal("arrivals out of order")
		}
		if arr.DueNS < 0 || arr.DueNS >= int64(10*time.Second) {
			t.Fatalf("arrival %d due at %d ns, outside the run", i, arr.DueNS)
		}
		if strings.Contains(w.Templates[arr.Template].Key, "fully-het") {
			heavy++
		}
	}
	if heavy != 24 {
		t.Errorf("%d heavy ops of 1200, want exactly 2%%", heavy)
	}
}

func TestCriticalPathAndBacklog(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1e6) }
	stages := []stageDoc{
		{Name: "scene", Started: at(0), Finished: at(2)},
		{Name: "a", After: []string{"scene"}, Started: at(2), Finished: at(32)},
		{Name: "b", After: []string{"scene"}, Started: at(2), Finished: at(52)},
		{Name: "report", After: []string{"a", "b"}, Started: at(60), Finished: at(61)},
	}
	if got := criticalPathMS(stages); got != 2+50+1 {
		t.Errorf("critical path = %v ms, want 53", got)
	}
	flat, growing := make([]float64, 90), make([]float64, 90)
	for i := range flat {
		flat[i] = float64(3 + i%2)
		growing[i] = float64(i)
	}
	if backlogGrowing(flat) || !backlogGrowing(growing) {
		t.Error("backlogGrowing misjudges a flat or a climbing in-flight count")
	}
}

func TestDiffNamesTheFirstDifference(t *testing.T) {
	want := &jobResult{VirtualSeconds: 1.5, ComSeconds: 1, SeqSeconds: 0.25, ParSeconds: 0.25, ImbalanceDAll: 2, Targets: 8}
	got := *want
	got.VirtualSeconds *= 1 + 1e-12
	if d := diffJob(&got, want); d != "" {
		t.Errorf("a 1e-12 relative change was reported: %s", d)
	}
	got.ParSeconds = 0.26
	if d := diffJob(&got, want); !strings.HasPrefix(d, "par_seconds") {
		t.Errorf("diffJob = %q, want it to name par_seconds", d)
	}
	pw := &pipeResult{TotalVirtualSeconds: 3, Detection: map[string]map[string]float64{"atdca": {"A": 0.01}},
		Classification: map[string]classScore{"pct": {OverallPercent: 90, Kappa: 0.8}}}
	pg := &pipeResult{TotalVirtualSeconds: 3, Detection: map[string]map[string]float64{"atdca": {"A": 0.02}},
		Classification: pw.Classification}
	if d := diffPipe(pg, pw); !strings.Contains(d, "detection[atdca][A]") {
		t.Errorf("diffPipe = %q, want it to name detection[atdca][A]", d)
	}
	if d := diffPipe(pw, pw); d != "" {
		t.Errorf("diffPipe of a result with itself = %q", d)
	}
}

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var ws []workload
	for _, w := range allWorkloads() {
		if w.Ungated == "" {
			ws = append(ws, w)
		}
	}
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness gates %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, bj.Workloads[i].Name, w.Name)
		}
		if n := len(bj.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, n)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := bj.EndToEnd[i]
		better := "lower"
		if d.Name == "ops_per_s" {
			better = "higher"
		}
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != better || e.Bound != bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v better=%s bound=%v", i, e, d, better, bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if p := bj.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, p, d)
		}
	}
	for _, name := range exactCounts {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exact count %q is not a per-layer metric", name)
		}
	}
}

// TestSmoke builds hyperhetd and pushes about twenty ops of every workload
// through both passes. It checks structure only — every declared metric is
// reported, no op fails — and never a time, so it cannot flake on a busy
// machine.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hyperhetd")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	if h.expected, err = loadExpected(h.root); err != nil {
		t.Fatal(err)
	}
	h.setupRuns = 1
	defer func(d time.Duration) { replayBudget = d }(replayBudget)
	replayBudget = 0
	o := runOpts{Seconds: 1, MaxOps: 20}
	for _, w := range allWorkloads() {
		w := w
		// Eight templates warm up in a fraction of the time all of them take.
		w.Templates = w.Templates[:8]
		var cycle []int
		for _, c := range w.Cycle {
			if c < len(w.Templates) {
				cycle = append(cycle, c)
			}
		}
		w.Cycle = cycle
		// The replay runs race-instrumented here; the tiny scene keeps it short.
		w.ReplayScene = withSeed(tinyScene, 1)
		w.ReplayJob = jobReq{Algorithm: "atdca", Mode: "sequential", Targets: 4, Classes: 4}
		res, err := h.traced(&w, 1, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkPass(t, w.Name+" traced", res, perLayer)
		if _, err := os.Stat(filepath.Join(h.outDir, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		// One closed and one open loop cover the end-to-end pass; its code
		// does not otherwise depend on the workload.
		if w.Name == "smalljob-durable" || w.Name == "mixed-open" {
			res, err := h.e2e(&w, 1, o)
			if err != nil {
				t.Fatalf("%s e2e: %v", w.Name, err)
			}
			checkPass(t, w.Name+" e2e", res, endToEnd)
		}
	}
}

func checkPass(t *testing.T, what string, res passResult, defs []metricDef) {
	t.Helper()
	if res.Failed != 0 || res.Attempted != 20 {
		t.Errorf("%s: attempted %d, failed %d (first: %s); want 20, 0", what, res.Attempted, res.Failed, res.FirstFail)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: metric %s not reported", what, d.Name)
		}
	}
}
