package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	hyperhet "repro"
)

// sceneCacheBytes is the resident-cube bound hyperhet.NewSceneCache fixes.
const sceneCacheBytes = 64 << 20

func sceneStats(t *testing.T, baseURL string) hyperhet.SceneCacheStats {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		SceneCache hyperhet.SceneCacheStats `json:"scene_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.SceneCache
}

func submitOK(t *testing.T, baseURL, body string) string {
	t.Helper()
	resp, doc := postJSON(t, baseURL+"/submit", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %v", resp.StatusCode, doc)
	}
	return doc["id"].(string)
}

// Over HTTP: the first cacheable job on a config generates its scene
// once (the POST learns the digest, the worker finds the cube resident);
// the repeat is a result-cache hit that generates nothing. Non-cacheable
// jobs skip the digest and generate on the worker only.
func TestSceneCacheSubmitGeneratesEachSceneOnce(t *testing.T) {
	const configs = 40
	job := func(seed int, extra string) string {
		return fmt.Sprintf(`{"algorithm": "atdca", "mode": "sequential", "targets": 4%s,
			"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": %d}}`, extra, seed)
	}
	cases := []struct {
		name, extra     string
		rounds          int
		repeatFromCache bool
	}{
		{"cacheable twice", "", 2, true},
		{"no_cache twice", `, "no_cache": true`, 2, false},
		{"checkpointed once", `, "checkpoint": true`, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := testServer(t, hyperhet.SchedulerConfig{QueueDepth: 64})
			for round := 1; round <= tc.rounds; round++ {
				ids := make([]string, configs)
				for seed := range ids {
					ids[seed] = submitOK(t, ts.URL, job(seed+1, tc.extra))
				}
				for _, id := range ids {
					doc := waitSettled(t, ts.URL, id)
					if doc["state"] != "completed" {
						t.Fatalf("round %d job %s settled as %v (%v)", round, id, doc["state"], doc["error"])
					}
					if hit, _ := doc["from_cache"].(bool); hit != (round == 2 && tc.repeatFromCache) {
						t.Fatalf("round %d job %s from_cache=%v", round, id, hit)
					}
				}
				if st := sceneStats(t, ts.URL); st.Generations != configs || st.Resident != configs {
					t.Fatalf("after round %d: scene_cache %+v, want %d generations, all resident", round, st, configs)
				}
			}
		})
	}
}

func TestSceneCacheConcurrentFirstSubmitsShareOneGeneration(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{QueueDepth: 16})
	const body = `{"algorithm": "pct", "mode": "sequential",
		"scene": {"lines": 96, "samples": 64, "bands": 32, "seed": 11}}`
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, doc := postJSON(t, ts.URL+"/submit", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d = %d %v", i, resp.StatusCode, doc)
				return
			}
			ids[i], _ = doc["id"].(string)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if doc := waitSettled(t, ts.URL, id); doc["state"] != "completed" {
			t.Fatalf("job %s settled as %v (%v)", id, doc["state"], doc["error"])
		}
	}
	if st := sceneStats(t, ts.URL); st.Generations != 1 {
		t.Fatalf("scene_cache %+v, want 1 generation for %d concurrent first submits", st, clients)
	}
}

// /submit and a pipeline's scene stage name the same config: one
// generation serves both, whichever arrives first.
func TestSceneCacheSubmitAndPipelineShareOneGeneration(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Workers: 4, QueueDepth: 32})
	var wg sync.WaitGroup
	wg.Add(2)
	var jobID, pipeID string
	go func() {
		defer wg.Done()
		if resp, doc := postJSON(t, ts.URL+"/submit", tinyJob); resp.StatusCode == http.StatusAccepted {
			jobID, _ = doc["id"].(string)
		}
	}()
	go func() {
		defer wg.Done()
		if resp, doc := postJSON(t, ts.URL+"/pipelines", fanoutPipeline); resp.StatusCode == http.StatusAccepted {
			pipeID, _ = doc["id"].(string)
		}
	}()
	wg.Wait()
	if jobID == "" || pipeID == "" {
		t.Fatalf("submissions refused: job %q pipeline %q", jobID, pipeID)
	}
	if doc := waitSettled(t, ts.URL, jobID); doc["state"] != "completed" {
		t.Fatalf("job settled as %v (%v)", doc["state"], doc["error"])
	}
	if doc := waitPipelineSettled(t, ts.URL, pipeID); doc["state"] != "completed" {
		t.Fatalf("pipeline settled as %v (%v)", doc["state"], doc["error"])
	}
	if st := sceneStats(t, ts.URL); st.Generations != 1 {
		t.Fatalf("scene_cache %+v, want the job and the pipeline to share 1 generation", st)
	}
}

// Boot replay generates nothing: resubmissions carry the lazy handle, a
// cacheable one takes its digest from its journaled cache key, so only
// the job a worker actually picks up builds a scene — and the restored
// key is the content-digest key a fresh submission computes.
func TestSceneCacheReplayGeneratesNoScene(t *testing.T) {
	dir := t.TempDir()
	// One worker, held by a blocker that holdBlockers parks until the
	// drain (and, after the restart, the cancel below): everything behind
	// it stays queued.
	cfg := hyperhet.SchedulerConfig{Workers: 1, QueueDepth: 32, OnJobRunning: holdBlockers}
	const blocker = `{
		"algorithm": "atdca", "network": "fully-het", "targets": 4, "label": "blocker", "no_cache": true,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 99}}`
	queuedJob := func(seed int, extra string) string {
		return fmt.Sprintf(`{"algorithm": "atdca", "mode": "sequential", "targets": 4%s,
			"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": %d}}`, extra, seed)
	}

	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())
	blockerID := submitOK(t, ts1.URL, blocker)
	var cacheable, uncached []string
	for seed := 1; seed <= 4; seed++ {
		cacheable = append(cacheable, submitOK(t, ts1.URL, queuedJob(seed, "")))
		uncached = append(uncached, submitOK(t, ts1.URL, queuedJob(seed+10, `, "no_cache": true`)))
	}
	srv1.drain(10 * time.Second)
	ts1.Close()

	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()
	// Nine jobs on nine scenes came back; at most the blocker, first in
	// line for the one worker, has built its scene.
	if st := srv2.scenes.Stats(); st.Generations > 1 || st.Digests > 1 {
		t.Fatalf("scene_cache after replay = %+v, want no generation beyond the running blocker's", st)
	}
	if jobs := srv2.sched.Jobs(); len(jobs) != 9 {
		t.Fatalf("replay restored %d jobs, want 9", len(jobs))
	}
	if resp, _ := postJSON(t, ts2.URL+"/jobs/"+blockerID+"/cancel", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker = %d", resp.StatusCode)
	}
	for _, id := range append(cacheable, uncached...) {
		if doc := waitSettled(t, ts2.URL, id); doc["state"] != "completed" || doc["from_cache"] != false {
			t.Fatalf("resumed job %s: state %v from_cache %v (%v)", id, doc["state"], doc["from_cache"], doc["error"])
		}
	}
	for seed := 1; seed <= 4; seed++ {
		doc := waitSettled(t, ts2.URL, submitOK(t, ts2.URL, queuedJob(seed, "")))
		if doc["state"] != "completed" || doc["from_cache"] != true {
			t.Fatalf("fresh repeat of resumed seed %d: state %v from_cache %v; the resumed job's journaled key should match",
				seed, doc["state"], doc["from_cache"])
		}
	}
}

// The scene_cache block of /stats reads the counters /metrics exports
// (TestMetricsEndpoint pins the same scenario's exposition lines).
func TestSceneCacheStatsBlock(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})
	for i := 0; i < 2; i++ {
		waitSettled(t, ts.URL, submitOK(t, ts.URL, tinyJob))
	}
	// POST 1 misses and generates, its worker hits the resident cube; POST
	// 2 hits the digest memo and the result cache.
	want := hyperhet.SceneCacheStats{Resident: 1, Bytes: 24 * 16 * 8 * 4, MaxBytes: sceneCacheBytes,
		Digests: 1, Hits: 2, Misses: 1, Generations: 1}
	if st := sceneStats(t, ts.URL); st != want {
		t.Fatalf("scene_cache = %+v, want %+v", st, want)
	}
}
