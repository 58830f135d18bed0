package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	hyperhet "repro"
)

// testServer spins up the HTTP API over a small scheduler.
func testServer(t *testing.T, cfg hyperhet.SchedulerConfig) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	srv, err := newServer(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		srv.close()
	})
	return ts
}

// holdBlockers is an OnJobRunning hook that parks every job labelled
// "blocker" on its worker until the job is cancelled (by a client, a
// drain or the server's close). The hold costs no CPU, so a loaded
// runner can neither finish it early nor starve the HTTP handler with it.
func holdBlockers(j *hyperhet.Job) {
	if j.Spec().Label == "blocker" {
		<-j.Context().Done()
	}
}

// blockerJob is a networked submission for holdBlockers to park.
const blockerJob = `{
	"algorithm": "atdca", "network": "fully-het", "targets": 4, "label": "blocker", "no_cache": true,
	"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}
}`

// tinyJob is a fast sequential submission on a minimal scene.
const tinyJob = `{
	"algorithm": "atdca", "mode": "sequential", "targets": 4,
	"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}
}`

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, doc
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, doc
}

func TestSubmitPollStats(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})

	resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit response has no id: %v", doc)
	}

	deadline := time.Now().Add(10 * time.Second)
	var job map[string]any
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled: %v", id, job)
		}
		_, job = getJSON(t, ts.URL+"/jobs/"+id)
		if st, _ := job["state"].(string); st == "completed" || st == "failed" || st == "cancelled" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job["state"] != "completed" {
		t.Fatalf("job settled as %v (error %v)", job["state"], job["error"])
	}
	result, ok := job["result"].(map[string]any)
	if !ok {
		t.Fatalf("completed job has no result: %v", job)
	}
	if vs, _ := result["virtual_seconds"].(float64); vs <= 0 {
		t.Fatalf("virtual_seconds = %v, want > 0", result["virtual_seconds"])
	}
	if tg, _ := result["targets"].(float64); int(tg) != 4 {
		t.Fatalf("targets = %v, want 4", result["targets"])
	}

	resp, stats := getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if c, _ := stats["completed"].(float64); c < 1 {
		t.Fatalf("stats report %v completed, want >= 1", stats["completed"])
	}
}

// waitSettled polls a job until it leaves the queued/running states.
func waitSettled(t *testing.T, url, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled", id)
		}
		_, job := getJSON(t, url+"/jobs/"+id)
		if st, _ := job["state"].(string); st == "completed" || st == "failed" || st == "cancelled" {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A submission with an injected rank crash fails its first attempt, is
// retried by the scheduler, and completes — with the attempt history
// visible in the job JSON.
func TestChaosJobRetriesOverHTTP(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	const chaos = `{
		"algorithm": "atdca", "network": "fully-het", "targets": 4,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
		"faults": {"crashes": [{"rank": 2, "at": 0.0001, "attempt": 1}], "max_attempts": 3}
	}`
	resp, doc := postJSON(t, ts.URL+"/submit", chaos)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, doc)
	}
	job := waitSettled(t, ts.URL, doc["id"].(string))
	if job["state"] != "completed" {
		t.Fatalf("chaos job settled as %v (error %v)", job["state"], job["error"])
	}
	if n, _ := job["attempts"].(float64); n <= 1 {
		t.Fatalf("attempts = %v, want > 1", job["attempts"])
	}
	history, ok := job["attempt_history"].([]any)
	if !ok || len(history) != 2 {
		t.Fatalf("attempt_history = %v, want 2 records", job["attempt_history"])
	}
	first := history[0].(map[string]any)
	if msg, _ := first["error"].(string); !strings.Contains(msg, "rank 2") {
		t.Fatalf("first attempt error = %q, want a rank-2 failure", msg)
	}
	if retry, _ := first["retryable"].(bool); !retry {
		t.Fatalf("first attempt record = %v, want retryable", first)
	}
}

// A permanent worker crash with recovery enabled completes on the
// survivors in a second attempt: the job counts both attempts, and the
// result summary reports the lost rank and the overhead but no count of
// its own.
func TestChaosJobDegradedRecoveryOverHTTP(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	const chaos = `{
		"algorithm": "atdca", "network": "fully-het", "targets": 4,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
		"faults": {"crashes": [{"rank": 3, "at": 0.0001, "attempt": -1}], "recovery": true}
	}`
	resp, doc := postJSON(t, ts.URL+"/submit", chaos)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, doc)
	}
	job := waitSettled(t, ts.URL, doc["id"].(string))
	if job["state"] != "completed" {
		t.Fatalf("recovery job settled as %v (error %v)", job["state"], job["error"])
	}
	result, ok := job["result"].(map[string]any)
	if !ok {
		t.Fatalf("completed job has no result: %v", job)
	}
	if n, _ := job["attempts"].(float64); n != 2 {
		t.Fatalf("attempts = %v, want 2", job["attempts"])
	}
	if _, ok := result["run_attempts"]; ok {
		t.Fatalf("result carries a second attempt count: %v", result)
	}
	ranks, _ := result["failed_ranks"].([]any)
	if len(ranks) != 1 || ranks[0].(float64) != 3 {
		t.Fatalf("failed_ranks = %v, want [3]", result["failed_ranks"])
	}
	if ov, _ := result["recovery_overhead_seconds"].(float64); ov <= 0 {
		t.Fatalf("recovery_overhead_seconds = %v, want > 0", result["recovery_overhead_seconds"])
	}
	if procs, _ := result["procs"].(float64); procs != 15 {
		t.Fatalf("degraded run used %v procs, want 15", result["procs"])
	}
}

func TestSubmitRejectsBadFaults(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	cases := []struct {
		name, body string
	}{
		{"seed and events", `{"algorithm": "atdca", "network": "fully-het",
			"faults": {"seed": 7, "crashes": [{"rank": 1, "at": 1}]}}`},
		{"out-of-range rank", `{"algorithm": "atdca", "network": "fully-het",
			"faults": {"crashes": [{"rank": 99, "at": 1}]}}`},
		{"negative budget", `{"algorithm": "atdca", "network": "fully-het",
			"faults": {"max_attempts": -2}}`},
		{"seeded sequential", `{"algorithm": "atdca", "mode": "sequential",
			"faults": {"seed": 7}}`},
	}
	for _, tc := range cases {
		resp, doc := postJSON(t, ts.URL+"/submit", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v), want 400", tc.name, resp.StatusCode, doc)
		}
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	cases := []struct {
		name, body string
		want       string // the exact error text, where clients may match on it
	}{
		{name: "garbage", body: "{"},
		{name: "unknown field", body: `{"algorithm": "atdca", "frobnicate": true}`},
		{name: "bad algorithm", body: `{"algorithm": "fft"}`,
			want: `unknown algorithm "fft" (want atdca, ufcls, pct or morph)`},
		{name: "bad variant", body: `{"algorithm": "atdca", "variant": "diagonal"}`,
			want: `unknown variant "diagonal" (want hetero or homo)`},
		{name: "bad network", body: `{"algorithm": "atdca", "network": "ethernet"}`,
			want: `unknown network "ethernet" (want fully-het, fully-homo, part-het, part-homo or thunderhead)`},
		{name: "bad priority", body: `{"algorithm": "atdca", "priority": "urgent"}`},
		{name: "bad scene", body: `{"algorithm": "atdca", "scene": {"lines": 2, "samples": 2, "bands": 2}}`},
		// The generator's own minimums, on jobs that defer generation to
		// the worker (no digest needed) and on one that does not.
		{name: "too few lines", body: `{"algorithm": "atdca", "no_cache": true, "scene": {"lines": 15, "samples": 16, "bands": 8}}`},
		{name: "too few samples", body: `{"algorithm": "atdca", "checkpoint": true, "scene": {"lines": 16, "samples": 15, "bands": 8}}`},
		{name: "too few bands", body: `{"algorithm": "atdca", "scene": {"lines": 16, "samples": 16, "bands": 7}}`},
		{name: "too few bands under faults", body: `{"algorithm": "atdca", "scene": {"bands": 7},
			"faults": {"crashes": [{"rank": 1, "at": 1}]}}`},
	}
	for _, tc := range cases {
		resp, doc := postJSON(t, ts.URL+"/submit", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v), want 400", tc.name, resp.StatusCode, doc)
		}
		if msg, _ := doc["error"].(string); msg == "" || tc.want != "" && msg != tc.want {
			t.Errorf("%s: error body %q, want %q", tc.name, msg, tc.want)
		}
	}
	// A refused submission never reaches the scene cache.
	if st := sceneStats(t, ts.URL); st != (hyperhet.SceneCacheStats{MaxBytes: sceneCacheBytes}) {
		t.Errorf("scene_cache after refusals = %+v, want untouched", st)
	}
}

// Names are spelled case-insensitively, and what a request leaves out is
// the server's default: WEA partitioning on the fully heterogeneous
// network, 16 Thunderhead nodes.
func TestParseSubmitNamesAndDefaults(t *testing.T) {
	for _, tc := range []struct {
		req     submitRequest
		alg     hyperhet.Algorithm
		variant hyperhet.Variant
		network string
		procs   int
	}{
		{submitRequest{Algorithm: "atdca"}, hyperhet.ATDCA, hyperhet.Hetero, "fully-heterogeneous", 16},
		{submitRequest{Algorithm: "Morph", Variant: "HOMO", Network: "Part-Homo"}, hyperhet.MORPH, hyperhet.Homo, "partially-homogeneous", 16},
		{submitRequest{Algorithm: "PCT", Variant: "hetero", Network: "thunderhead"}, hyperhet.PCT, hyperhet.Hetero, "thunderhead", 16},
		{submitRequest{Algorithm: "ufcls", Network: "THUNDERHEAD", CPUs: 4}, hyperhet.UFCLS, hyperhet.Hetero, "thunderhead", 4},
	} {
		spec, _, err := parseSubmit(&tc.req)
		if err != nil {
			t.Errorf("%+v: %v", tc.req, err)
			continue
		}
		if spec.Algorithm != tc.alg || spec.Variant != tc.variant || spec.Network.Name != tc.network || spec.Network.Size() != tc.procs {
			t.Errorf("%+v: parsed to %s/%s on %s (%d)", tc.req, spec.Algorithm, spec.Variant, spec.Network.Name, spec.Network.Size())
		}
	}
}

// "mode": "adaptive" is still accepted: it parses to the Adaptive variant
// of an ATDCA run — whatever the algorithm field says — and is otherwise
// the spec an ATDCA run request parses to. The job document reports it as
// mode run, variant Adaptive.
func TestSubmitAdaptiveMode(t *testing.T) {
	for _, body := range []string{`{"mode": "adaptive"}`, `{"mode": "Adaptive", "algorithm": "pct", "variant": "homo"}`} {
		var req submitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		spec, _, err := parseSubmit(&req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want, _, err := parseSubmit(&submitRequest{Algorithm: "atdca"})
		if err != nil {
			t.Fatal(err)
		}
		want.Variant = hyperhet.Adaptive
		if !reflect.DeepEqual(spec, want) {
			t.Errorf("%s parsed to %+v, want %+v", body, spec, want)
		}
	}
	if _, _, err := parseSubmit(&submitRequest{Mode: "adaptive", Variant: "diagonal"}); err == nil {
		t.Error("adaptive mode skipped the variant check")
	}

	ts := testServer(t, hyperhet.SchedulerConfig{})
	resp, doc := postJSON(t, ts.URL+"/submit", `{"mode": "adaptive", "targets": 4,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, doc)
	}
	job := waitSettled(t, ts.URL, doc["id"].(string))
	if job["state"] != "completed" || job["mode"] != "run" || job["algorithm"] != "ATDCA" || job["variant"] != "Adaptive" {
		t.Fatalf("adaptive job document = %v, want a completed run of ATDCA/Adaptive", job)
	}
}

// retryAfterSeconds parses the Retry-After header, failing the test when
// it is absent or not a positive integer-second count.
func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%d response carries no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer-second count", ra)
	}
	return secs
}

func TestBackpressureReturns429(t *testing.T) {
	// One worker and a one-slot queue: with the worker occupied and the
	// slot taken, a further submission must be rejected with 429. The
	// blockers are parked by holdBlockers, so the worker is held by a
	// wait, not by computation — a CPU-heavy blocker starves the HTTP
	// handler itself on a single-core runner, letting the worker drain
	// the queue between slowed-down submissions (the old, flaky shape of
	// this test).
	ts := testServer(t, hyperhet.SchedulerConfig{
		Workers: 1, QueueDepth: 1, CacheEntries: -1, OnJobRunning: holdBlockers,
	})
	sawFull := false
	for i := 0; i < 8 && !sawFull; i++ {
		resp, doc := postJSON(t, ts.URL+"/submit", blockerJob)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			sawFull = true
			if msg, _ := doc["error"].(string); !strings.Contains(msg, "queue full") {
				t.Fatalf("429 error = %q, want queue-full", msg)
			}
			if secs := retryAfterSeconds(t, resp); secs != 1 {
				t.Fatalf("queue-full 429 Retry-After = %d, want 1", secs)
			}
		default:
			t.Fatalf("submit %d: status %d (%v)", i, resp.StatusCode, doc)
		}
	}
	if !sawFull {
		t.Fatal("never saw a 429 despite a one-slot queue")
	}
}

// A repeat of a finished job settles at admission: its 202 already says
// completed, from cache. Its ID answers GET /jobs/{id} after more hits than
// the retention bound have settled since, as a client polling it finds it;
// and a full queue still refuses a hit with a 429.
func TestHitAtAdmissionAcceptedCompletedAndRetained(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{
		Workers: 1, QueueDepth: 1, RetainJobs: 1, OnJobRunning: holdBlockers,
	})
	resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d %v", resp.StatusCode, doc)
	}
	if job := waitSettled(t, ts.URL, doc["id"].(string)); job["state"] != "completed" {
		t.Fatalf("first run settled %v (%v)", job["state"], job["error"])
	}
	var first string
	for i := 0; i < 9; i++ {
		resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
		if resp.StatusCode != http.StatusAccepted || doc["state"] != "completed" || doc["from_cache"] != true {
			t.Fatalf("repeat %d: %d state %v from_cache %v, want 202 completed from cache",
				i, resp.StatusCode, doc["state"], doc["from_cache"])
		}
		if i == 0 {
			first = doc["id"].(string)
		}
	}
	if resp, job := getJSON(t, ts.URL+"/jobs/"+first); resp.StatusCode != http.StatusOK || job["state"] != "completed" {
		t.Fatalf("GET /jobs/%s after 8 newer hits = %d %v, want the completed hit", first, resp.StatusCode, job)
	}

	// One blocker holds the worker and another the one queue slot.
	_, doc = postJSON(t, ts.URL+"/submit", blockerJob)
	running := doc["id"].(string)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, job := getJSON(t, ts.URL+"/jobs/"+running); job["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker %s never started", running)
		}
	}
	if resp, doc := postJSON(t, ts.URL+"/submit", blockerJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued blocker = %d %v", resp.StatusCode, doc)
	}
	if resp, doc := postJSON(t, ts.URL+"/submit", tinyJob); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hit into a full queue = %d %v, want 429", resp.StatusCode, doc)
	}
}

// The server never refuses chaos the client asked for: the same
// permanent-crash plan submitted again and again is admitted and run
// every time, settles failed with the rank-failure error every time, and
// leaves the server ready.
func TestSubmitRepeatedChaosServed(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	const chaosJob = `{
		"algorithm": "atdca", "mode": "run", "network": "fully-het", "targets": 4,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
		"faults": {"crashes": [{"rank": 2, "at": 0.0001, "attempt": -1}], "max_attempts": 1}
	}`
	for i := 1; i <= 3; i++ {
		resp, doc := postJSON(t, ts.URL+"/submit", chaosJob)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chaos submit %d = %d %v, want 202", i, resp.StatusCode, doc)
		}
		job := waitSettled(t, ts.URL, doc["id"].(string))
		if msg, _ := job["error"].(string); job["state"] != "failed" || !strings.Contains(msg, "rank 2 failed") {
			t.Fatalf("chaos job %d settled %v with error %q, want failed with the rank-failure error", i, job["state"], msg)
		}
		resp, doc = getJSON(t, ts.URL+"/readyz")
		if resp.StatusCode != http.StatusOK || doc["status"] != "ok" {
			t.Fatalf("readyz after chaos job %d = %d %v, want 200 ok", i, resp.StatusCode, doc)
		}
	}
}

func TestCancelEndpoint(t *testing.T) {
	// The job is parked by holdBlockers until cancelled, so the cancel
	// always lands before it can finish (racing a cancel against a real
	// compute run is flaky on a loaded single-core runner — the run can
	// finish first).
	ts := testServer(t, hyperhet.SchedulerConfig{
		Workers: 1, QueueDepth: 4, CacheEntries: -1, OnJobRunning: holdBlockers,
	})
	resp, doc := postJSON(t, ts.URL+"/submit", blockerJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, doc)
	}
	id := doc["id"].(string)
	resp, _ = postJSON(t, ts.URL+"/jobs/"+id+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never settled")
		}
		_, job := getJSON(t, ts.URL+"/jobs/"+id)
		if st, _ := job["state"].(string); st == "cancelled" {
			break
		} else if st == "completed" || st == "failed" {
			t.Fatalf("job settled as %v, want cancelled", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, _ = postJSON(t, ts.URL+"/jobs/no-such-job/cancel", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job status = %d, want 404", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/jobs/no-such-job")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown job status = %d, want 404", resp.StatusCode)
	}
}
