package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	hyperhet "repro"
)

// tracedJob is tinyJob on a small network with tracing on.
const tracedJob = `{
	"algorithm": "atdca", "network": "fully-het", "targets": 4, "trace": true,
	"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}
}`

// expositionLine matches one sample line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})

	// One real run, then a cache hit of the same submission.
	for i := 0; i < 2; i++ {
		resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, body %v", resp.StatusCode, doc)
		}
		waitSettled(t, ts.URL, doc["id"].(string))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// The acceptance set: queue depth, job latency histogram, cache
	// counters, plus the layers underneath.
	for _, want := range []string{
		"hyperhet_sched_queue_depth 0",
		`hyperhet_sched_job_seconds_bucket{class="batch",le="+Inf"} 2`,
		"hyperhet_sched_job_seconds_count",
		`hyperhet_sched_cache_requests_total{result="hit"} 1`,
		`hyperhet_sched_cache_requests_total{result="miss"} 1`,
		"hyperhet_sched_submitted_total 2",
		`hyperhet_core_runs_started_total{algorithm="ATDCA"} 1`,
		"hyperhet_core_virtual_seconds_total",
		`hyperhet_mpi_flops_total{rank="0"}`,
		`hyperhet_log_records_total{level="INFO"} 2`,
		// POST 1 generates (miss) and its worker finds the cube resident;
		// POST 2 is answered by the digest memo and the result cache.
		"hyperhet_scene_cache_hits_total 2",
		"hyperhet_scene_cache_misses_total 1",
		"hyperhet_scene_cache_bytes 12288",
		"hyperhet_scene_generations_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// chromeDoc mirrors the trace-event JSON for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// A traced run of any variant serves its Chrome trace, the Adaptive one
// included.
func TestTraceEndpoint(t *testing.T) {
	adaptive := strings.Replace(tracedJob, `"algorithm": "atdca"`, `"mode": "adaptive"`, 1)
	for name, body := range map[string]string{"run": tracedJob, "adaptive": adaptive} {
		t.Run(name, func(t *testing.T) {
			ts := testServer(t, hyperhet.SchedulerConfig{})
			resp, doc := postJSON(t, ts.URL+"/submit", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status = %d, body %v", resp.StatusCode, doc)
			}
			id := doc["id"].(string)
			job := waitSettled(t, ts.URL, id)
			if job["state"] != "completed" {
				t.Fatalf("job state = %v (%v)", job["state"], job["error"])
			}
			result := job["result"].(map[string]any)
			parSeconds := result["par_seconds"].(float64)

			traceResp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
			if err != nil {
				t.Fatal(err)
			}
			defer traceResp.Body.Close()
			if traceResp.StatusCode != http.StatusOK {
				t.Fatalf("trace status = %d", traceResp.StatusCode)
			}
			if ct := traceResp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("trace Content-Type = %q", ct)
			}
			var trace chromeDoc
			if err := json.NewDecoder(traceResp.Body).Decode(&trace); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			if len(trace.TraceEvents) == 0 {
				t.Fatal("trace has no events")
			}

			// The acceptance property: the root rank's PAR-category
			// compute plus its idle waits must sum to the report's PAR
			// time (the paper folds root idle into PAR).
			var rootPar float64
			ranks := map[int]bool{}
			for _, e := range trace.TraceEvents {
				if e.Ph != "X" {
					continue
				}
				ranks[e.Tid] = true
				if e.Tid == 1 && (e.Cat == "PAR" || e.Cat == "IDLE") {
					rootPar += e.Dur / 1e6
				}
			}
			if math.Abs(rootPar-parSeconds) > 1e-6*math.Max(1, parSeconds) {
				t.Errorf("root PAR+IDLE slices sum to %v s, report says %v s", rootPar, parSeconds)
			}
			// One thread row per rank of the 16-processor network.
			if len(ranks) != 16 {
				t.Errorf("trace covers %d ranks, want 16", len(ranks))
			}
		})
	}
}

func TestTraceEndpointUntracedAndUnknown(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})

	resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := doc["id"].(string)
	waitSettled(t, ts.URL, id)

	r, _ := http.Get(ts.URL + "/jobs/" + id + "/trace")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace status = %d, want 404", r.StatusCode)
	}
	r, _ = http.Get(ts.URL + "/jobs/job-999/trace")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status = %d, want 404", r.StatusCode)
	}
}

func TestPprofBehindFlag(t *testing.T) {
	srv, err := newServer(hyperhet.SchedulerConfig{Workers: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()

	off := httptest.NewServer(srv.routes())
	resp, err := http.Get(off.URL + "/debug/pprof/")
	off.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag: status = %d, want 404", resp.StatusCode)
	}

	srv.enablePprof = true
	on := httptest.NewServer(srv.routes())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof with flag: status %d, body %q", resp.StatusCode, body[:min(len(body), 120)])
	}
}

func TestSceneCapRejectsHugeScenes(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	resp, doc := postJSON(t, ts.URL+"/submit", `{
		"algorithm": "atdca", "mode": "sequential",
		"scene": {"lines": 60000, "samples": 60000, "bands": 60000}
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge scene status = %d, body %v", resp.StatusCode, doc)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "voxels") {
		t.Errorf("error %q does not mention the voxel cap", msg)
	}
}

// The hyperhet_* name set is a contract: dashboards and bench/ are written
// against it. A freshly booted server must register exactly the committed
// list, and DESIGN.md's Telemetry inventory must document exactly that
// list — adding, renaming or dropping an instrument means editing
// testdata/metric_names.txt and the inventory in the same change.
func TestMetricNameSetMatchesCommittedList(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got = append(got, f[2])
		}
	}
	sort.Strings(got)
	want, err := os.ReadFile("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, "\n")+"\n", string(want); g != w {
		t.Fatalf("registered metric names drifted from testdata/metric_names.txt\nregistered:\n%s\ncommitted:\n%s", g, w)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(design), "\n## Telemetry ")
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	registered := map[string]bool{}
	for _, name := range got {
		registered[name] = true
		if !strings.Contains(inventory, "| `"+name+"` |") {
			t.Errorf("%s is registered but has no row in DESIGN.md's Telemetry inventory", name)
		}
	}
	// A match ending in "_" is a prefix mention ("hyperhet_scene_*",
	// "hyperhet_*_finished_total"), not a name.
	for _, name := range regexp.MustCompile("hyperhet_[a-z0-9_]+").FindAllString(string(design), -1) {
		if !strings.HasSuffix(name, "_") && !registered[name] {
			t.Errorf("DESIGN.md names %s, which no instrument registers", name)
		}
	}
}
