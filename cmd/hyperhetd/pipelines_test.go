package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hyperhet "repro"
)

// fanoutPipeline is the acceptance pipeline: one scene feeding an
// ATDCA + UFCLS + PCT + MORPH fan-out, folded by a synthesis stage —
// Table 3 and Table 4 as one submission.
const fanoutPipeline = `{
	"name": "table3+4",
	"stages": [
		{"name": "scene", "kind": "scene",
		 "scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}},
		{"name": "atdca", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "atdca", "mode": "sequential", "targets": 4}},
		{"name": "ufcls", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "ufcls", "mode": "sequential", "targets": 4}},
		{"name": "pct", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "pct", "mode": "sequential"}},
		{"name": "morph", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "morph", "mode": "sequential"}},
		{"name": "report", "kind": "synthesize",
		 "after": ["atdca", "ufcls", "pct", "morph"]}
	]
}`

// waitPipelineSettled polls GET /pipelines/{id} until the state is final.
func waitPipelineSettled(t *testing.T, baseURL, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, doc := getJSON(t, baseURL+"/pipelines/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pipeline status = %d: %v", resp.StatusCode, doc)
		}
		switch doc["state"] {
		case "completed", "failed", "cancelled":
			return doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pipeline %s never settled", id)
	return nil
}

func pipelineStages(t *testing.T, doc map[string]any) map[string]map[string]any {
	t.Helper()
	raw, _ := doc["stages"].([]any)
	out := make(map[string]map[string]any, len(raw))
	for _, r := range raw {
		st, _ := r.(map[string]any)
		name, _ := st["name"].(string)
		out[name] = st
	}
	return out
}

// The acceptance criterion: a 4-way fan-out over one shared scene
// completes via POST /pipelines with exactly one scene generation, and a
// resubmission reports per-stage cache hits.
func TestPipelineFanoutOverHTTP(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Workers: 4, QueueDepth: 32})

	resp, doc := postJSON(t, ts.URL+"/pipelines", fanoutPipeline)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit = %d %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("no pipeline id in %v", doc)
	}

	final := waitPipelineSettled(t, ts.URL, id)
	if final["state"] != "completed" {
		t.Fatalf("pipeline settled as %v (error %v)", final["state"], final["error"])
	}
	if n, _ := final["stages_completed"].(float64); n != 6 {
		t.Fatalf("stages_completed = %v, want 6", final["stages_completed"])
	}
	// Exactly one scene generation: the four analyze stages share it.
	_, stats := getJSON(t, ts.URL+"/stats")
	if n, _ := stats["scene_cache"].(map[string]any)["generations"].(float64); n != 1 {
		t.Fatalf("scene_cache = %v, want 1 generation", stats["scene_cache"])
	}
	stages := pipelineStages(t, final)
	syn, _ := stages["report"]["synthesis"].(map[string]any)
	if syn == nil {
		t.Fatalf("synthesize stage carries no synthesis: %v", stages["report"])
	}
	det, _ := syn["detection"].(map[string]any)
	cls, _ := syn["classification"].(map[string]any)
	if len(det) != 2 || len(cls) != 2 {
		t.Fatalf("synthesis folded %d detection + %d classification entries, want 2 + 2", len(det), len(cls))
	}
	if tvs, _ := syn["total_virtual_seconds"].(float64); tvs <= 0 {
		t.Fatalf("total_virtual_seconds = %v, want > 0", syn["total_virtual_seconds"])
	}

	// Resubmission: every analyze stage rides the result cache and the
	// scene comes from the server cache — five hits, zero fresh seconds.
	resp, doc = postJSON(t, ts.URL+"/pipelines", fanoutPipeline)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second pipeline submit = %d %v", resp.StatusCode, doc)
	}
	id2, _ := doc["id"].(string)
	final2 := waitPipelineSettled(t, ts.URL, id2)
	if final2["state"] != "completed" {
		t.Fatalf("second pipeline settled as %v", final2["state"])
	}
	if hits, _ := final2["cache_hits"].(float64); hits != 5 {
		t.Fatalf("cache_hits = %v, want 5 (scene + 4 analyze stages)", final2["cache_hits"])
	}
	if vs, _ := final2["virtual_seconds"].(float64); vs != 0 {
		t.Fatalf("fresh virtual_seconds = %v, want 0 on a fully memoized rerun", final2["virtual_seconds"])
	}
	for _, name := range []string{"atdca", "ufcls", "pct", "morph"} {
		st := pipelineStages(t, final2)[name]
		if hit, _ := st["from_cache"].(bool); !hit {
			t.Fatalf("stage %s missed the result cache on resubmission: %v", name, st)
		}
	}

	// The listing shows both, oldest first.
	resp, doc = getJSON(t, ts.URL+"/pipelines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipelines listing = %d", resp.StatusCode)
	}
	if n, _ := doc["count"].(float64); n != 2 {
		t.Fatalf("listed %v pipelines, want 2", doc["count"])
	}
}

// A "scaled" analyze stage charges full-scene work against its scene
// stage's geometry: its virtual seconds are a scaled POST /submit's on
// the same scene, and not an unscaled one's.
func TestPipelineScaledStageMatchesScaledSubmit(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{CacheEntries: -1})
	const sc = `{"lines": 24, "samples": 16, "bands": 8, "seed": 3}`
	submitted := map[bool]float64{}
	for _, scaled := range []bool{false, true} {
		resp, doc := postJSON(t, ts.URL+"/submit", fmt.Sprintf(`{"algorithm": "atdca", "network": "fully-het",
			"targets": 4, "scaled": %t, "scene": %s}`, scaled, sc))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d %v", resp.StatusCode, doc)
		}
		id, _ := doc["id"].(string)
		job := waitSettled(t, ts.URL, id)
		submitted[scaled], _ = job["virtual_seconds"].(float64)
	}
	if submitted[true] <= 0 || submitted[true] == submitted[false] {
		t.Fatalf("scaled submit %v virtual seconds, unscaled %v: scaling charged nothing", submitted[true], submitted[false])
	}

	// The scene stage comes last: scaling does not depend on stage order.
	resp, doc := postJSON(t, ts.URL+"/pipelines", fmt.Sprintf(`{"stages": [
		{"name": "atdca", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "atdca", "network": "fully-het", "targets": 4, "scaled": true}},
		{"name": "scene", "kind": "scene", "scene": %s}]}`, sc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit = %d %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	final := waitPipelineSettled(t, ts.URL, id)
	if final["state"] != "completed" {
		t.Fatalf("pipeline settled as %v (error %v)", final["state"], final["error"])
	}
	if vs, _ := pipelineStages(t, final)["atdca"]["virtual_seconds"].(float64); vs != submitted[true] {
		t.Fatalf("scaled stage %v virtual seconds, scaled submit %v", vs, submitted[true])
	}
}

func TestPipelineRejectsBadRequests(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	cases := []struct {
		name, body, wantSub string
	}{
		{"not json", `{"stages": `, "bad request body"},
		{"unknown field", `{"pipeline": []}`, "bad request body"},
		{"no stages", `{"stages": []}`, "no stages"},
		{"self loop", `{"stages": [
			{"name": "a", "kind": "analyze", "after": ["a"],
			 "job": {"algorithm": "atdca", "mode": "sequential"}}]}`, "not a star: no scene stage"},
		{"cycle", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"], "job": {"algorithm": "atdca", "mode": "sequential"}},
			{"name": "x", "kind": "synthesize", "after": ["a", "y"]},
			{"name": "y", "kind": "synthesize", "after": ["a", "x"]}]}`, "not a star: second synthesize stage"},
		{"duplicate stage", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "s", "kind": "scene"}]}`, "duplicate stage name"},
		{"type mismatch", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "z", "kind": "synthesize", "after": ["s"]}]}`, "analyze stages only"},
		{"unknown kind", `{"stages": [{"name": "w", "kind": "mystery"}]}`, "unknown kind"},
		{"analyze without job", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"]}]}`, "needs a job"},
		{"job with scene", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"],
			 "job": {"algorithm": "atdca", "mode": "sequential", "scene": {"seed": 9}}}]}`, "upstream stage"},
		{"bad algorithm", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"], "job": {"algorithm": "maybe"}}]}`, "unknown algorithm"},
		{"oversized scene", `{"stages": [
			{"name": "s", "kind": "scene", "scene": {"lines": 65536, "samples": 65536, "bands": 65536}}]}`, "voxels"},
		{"undersized scene", `{"stages": [
			{"name": "s", "kind": "scene", "scene": {"lines": 16, "samples": 8, "bands": 8}}]}`, "too small"},
		{"too many stages", manyStages(33), "33 stages exceeds the limit of 32"},
		// Shapes outside the star.
		{"two scenes", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"], "job": {"algorithm": "atdca", "mode": "sequential"}},
			{"name": "s2", "kind": "scene", "scene": {"seed": 2}},
			{"name": "b", "kind": "analyze", "after": ["s2"], "job": {"algorithm": "atdca", "mode": "sequential"}}]}`,
			"not a star: second scene stage"},
		{"synthesis of a subset", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"], "job": {"algorithm": "atdca", "mode": "sequential"}},
			{"name": "b", "kind": "analyze", "after": ["s"], "job": {"algorithm": "ufcls", "mode": "sequential"}},
			{"name": "z", "kind": "synthesize", "after": ["b"]}]}`, "(1 of 2 listed)"},
		{"two syntheses", `{"stages": [
			{"name": "s", "kind": "scene"},
			{"name": "a", "kind": "analyze", "after": ["s"], "job": {"algorithm": "atdca", "mode": "sequential"}},
			{"name": "y", "kind": "synthesize", "after": ["a"]},
			{"name": "z", "kind": "synthesize", "after": ["a"]}]}`, "not a star: second synthesize stage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, doc := postJSON(t, ts.URL+"/pipelines", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d %v, want 400", resp.StatusCode, doc)
			}
			msg, _ := doc["error"].(string)
			if !strings.Contains(msg, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", msg, tc.wantSub)
			}
		})
	}
}

// manyStages is a star of one scene and n-1 analyses.
func manyStages(n int) string {
	var b strings.Builder
	b.WriteString(`{"stages": [{"name": "s", "kind": "scene"}`)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, `, {"name": "a%d", "kind": "analyze", "after": ["s"], "job": {"algorithm": "atdca", "mode": "sequential"}}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// Every pipeline refusal a client should retry carries Retry-After: 1,
// as /submit's do — the active-pipeline cap's 429, the closed engine's
// 503 and the drain's 503.
func TestPipelineRefusalsCarryRetryAfter(t *testing.T) {
	srv, err := newServer(hyperhet.SchedulerConfig{Workers: 1, QueueDepth: 4, OnJobRunning: holdBlockers}, "")
	if err != nil {
		t.Fatal(err)
	}
	// An engine that admits one active pipeline at a time.
	srv.flow.Close()
	if srv.flow, err = hyperhet.NewFlowEngine(hyperhet.FlowConfig{Scheduler: srv.sched, Scenes: srv.scenes.Provide, MaxActive: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer func() {
		ts.Close()
		srv.close()
	}()
	held := `{"stages": [
		{"name": "s", "kind": "scene", "scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}},
		{"name": "a", "kind": "analyze", "after": ["s"],
		 "job": {"algorithm": "atdca", "network": "fully-het", "targets": 4, "label": "blocker", "no_cache": true}}]}`

	if resp, doc := postJSON(t, ts.URL+"/pipelines", held); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first pipeline = %d %v, want 202", resp.StatusCode, doc)
	}
	for _, step := range []struct {
		name   string
		before func()
		status int
	}{
		{"active-pipeline cap", func() {}, http.StatusTooManyRequests},
		{"engine closed", srv.flow.Close, http.StatusServiceUnavailable},
		{"draining", func() { srv.draining.Store(true) }, http.StatusServiceUnavailable},
	} {
		step.before()
		resp, doc := postJSON(t, ts.URL+"/pipelines", held)
		if resp.StatusCode != step.status {
			t.Fatalf("%s: status = %d %v, want %d", step.name, resp.StatusCode, doc, step.status)
		}
		if secs := retryAfterSeconds(t, resp); secs != 1 {
			t.Fatalf("%s: Retry-After = %d, want 1", step.name, secs)
		}
	}
}

// Satellite: /jobs and /pipelines query parameters are validated with
// self-documenting error bodies.
func TestListingQueryValidation(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	cases := []struct {
		url, wantSub string
	}{
		{"/jobs?limit=-1", "positive integer"},
		{"/jobs?limit=0", "positive integer"},
		{"/jobs?limit=banana", "positive integer"},
		{"/jobs?state=sideways", "want queued, running, completed, failed or cancelled"},
		{"/pipelines?limit=-3", "positive integer"},
		{"/pipelines?state=paused", "want running, completed, failed or cancelled"},
	}
	for _, tc := range cases {
		resp, doc := getJSON(t, ts.URL+tc.url)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", tc.url, resp.StatusCode)
		}
		msg, _ := doc["error"].(string)
		if !strings.Contains(msg, tc.wantSub) {
			t.Fatalf("%s error %q does not mention %q", tc.url, msg, tc.wantSub)
		}
	}
	// Valid params still work.
	resp, _ := getJSON(t, ts.URL+"/jobs?state=completed&limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid jobs query = %d, want 200", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/pipelines?state=running&limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid pipelines query = %d, want 200", resp.StatusCode)
	}
}

func TestPipelineUnknownID(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	resp, _ := getJSON(t, ts.URL+"/pipelines/pipe-404")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pipeline = %d, want 404", resp.StatusCode)
	}
}

// slowPipeline has enough analyze work that a 1-worker server is still
// mid-pipeline when the drain hits.
const slowPipeline = `{
	"name": "slow",
	"stages": [
		{"name": "scene", "kind": "scene",
		 "scene": {"lines": 96, "samples": 64, "bands": 32, "seed": 5}},
		{"name": "atdca", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "atdca", "mode": "sequential", "targets": 8}},
		{"name": "ufcls", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "ufcls", "mode": "sequential", "targets": 8}},
		{"name": "pct", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "pct", "mode": "sequential"}},
		{"name": "morph", "kind": "analyze", "after": ["scene"],
		 "job": {"algorithm": "morph", "mode": "sequential"}},
		{"name": "report", "kind": "synthesize",
		 "after": ["atdca", "ufcls", "pct", "morph"]}
	]
}`

// The restart-resume acceptance criterion: kill mid-pipeline, restart
// with the same journal, and the pipeline completes without re-running
// its journal-recorded completed stages.
func TestJournalRestartResumesPipeline(t *testing.T) {
	dir := t.TempDir()
	cfg := hyperhet.SchedulerConfig{Workers: 1, QueueDepth: 32}

	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())

	resp, doc := postJSON(t, ts1.URL+"/pipelines", slowPipeline)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit = %d %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)

	// Wait until at least one analyze stage completed (in-process poll:
	// HTTP can be starved on a loaded box) but the pipeline has not.
	p1, err := srv1.flow.Pipeline(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := p1.Status()
		if st.State != "running" {
			t.Fatalf("pipeline settled as %s before the drain could catch it", st.State)
		}
		analyzeDone := 0
		for _, ss := range st.Stages {
			if ss.Kind == hyperhet.StageAnalyze && ss.State == "completed" {
				analyzeDone++
			}
		}
		if analyzeDone >= 1 && analyzeDone < 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never caught the pipeline mid-flight (%d analyze stages done)", analyzeDone)
		}
		time.Sleep(time.Millisecond)
	}

	// Drain and "crash". While draining, pipeline submissions refuse.
	drained := make(chan struct{})
	go func() { srv1.drain(10 * time.Second); close(drained) }()
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not finish within its deadline")
	}
	resp, _ = postJSON(t, ts1.URL+"/pipelines", fanoutPipeline)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pipeline submit while drained = %d, want 503", resp.StatusCode)
	}
	ts1.Close()
	completedBefore := 0
	for _, ss := range p1.Status().Stages {
		if ss.State == "completed" && ss.Kind != hyperhet.StageScene {
			completedBefore++
		}
	}
	if completedBefore == 0 {
		t.Fatal("drain caught the pipeline before any stage completed; test setup broken")
	}

	// Restart on the same journal: the pipeline resumes under its
	// original ID with the completed stages restored, not re-run.
	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()

	final := waitPipelineSettled(t, ts2.URL, id)
	if final["state"] != "completed" {
		t.Fatalf("resumed pipeline settled as %v (error %v)", final["state"], final["error"])
	}
	if r, _ := final["resumed"].(bool); !r {
		t.Fatal("resumed pipeline not marked resumed")
	}
	if n, _ := final["stages_resumed"].(float64); int(n) < completedBefore {
		t.Fatalf("stages_resumed = %v, want >= %d (completed-before-crash stages must not re-run)",
			final["stages_resumed"], completedBefore)
	}
	stages := pipelineStages(t, final)
	if syn, _ := stages["report"]["synthesis"].(map[string]any); syn == nil {
		t.Fatal("resumed pipeline produced no synthesis")
	}
	// Replay health counters surface in /stats on the journaled boot.
	_, stats := getJSON(t, ts2.URL+"/stats")
	jr, _ := stats["journal_replay"].(map[string]any)
	if jr == nil {
		t.Fatalf("stats missing journal_replay: %v", stats)
	}
	if n, _ := jr["records_replayed"].(float64); n <= 0 {
		t.Fatalf("records_replayed = %v, want > 0", jr["records_replayed"])
	}
}

// A finished pipeline must come back as queryable history after restart.
func TestJournalRestartRestoresFinishedPipeline(t *testing.T) {
	dir := t.TempDir()
	cfg := hyperhet.SchedulerConfig{Workers: 2, QueueDepth: 32}

	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())
	resp, doc := postJSON(t, ts1.URL+"/pipelines", fanoutPipeline)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit = %d %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	if st := waitPipelineSettled(t, ts1.URL, id); st["state"] != "completed" {
		t.Fatalf("pipeline settled as %v", st["state"])
	}
	ts1.Close()
	srv1.drain(10 * time.Second)

	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()
	resp, doc = getJSON(t, ts2.URL+"/pipelines/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored pipeline lookup = %d", resp.StatusCode)
	}
	if doc["state"] != "completed" {
		t.Fatalf("restored pipeline state = %v, want completed", doc["state"])
	}
	stages := pipelineStages(t, doc)
	if syn, _ := stages["report"]["synthesis"].(map[string]any); syn == nil {
		t.Fatal("restored pipeline lost its synthesis payload")
	}
	// A fresh submission must not collide with the restored ID.
	resp, doc = postJSON(t, ts2.URL+"/pipelines", fanoutPipeline)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit after restore = %d %v", resp.StatusCode, doc)
	}
	if doc["id"] == id {
		t.Fatalf("fresh pipeline reused restored ID %v", id)
	}
	waitPipelineSettled(t, ts2.URL, fmt.Sprint(doc["id"]))
}
