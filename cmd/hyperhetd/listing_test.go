package main

import (
	"fmt"
	"net/http"
	"testing"

	hyperhet "repro"
)

// ids extracts the "id" field of each element of a listing array.
func ids(t *testing.T, doc map[string]any, key string) []string {
	t.Helper()
	raw, ok := doc[key].([]any)
	if !ok {
		t.Fatalf("listing has no %q array: %v", key, doc)
	}
	out := make([]string, 0, len(raw))
	for _, r := range raw {
		entry, _ := r.(map[string]any)
		id, _ := entry["id"].(string)
		out = append(out, id)
	}
	return out
}

// GET /jobs must list in submission order regardless of completion
// order, and say so when ?limit= cut the listing short.
func TestJobsListingOrderAndTruncation(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Workers: 4, QueueDepth: 32})

	var submitted []string
	for i := 0; i < 5; i++ {
		resp, doc := postJSON(t, ts.URL+"/submit", tinyJob)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d %v", i, resp.StatusCode, doc)
		}
		submitted = append(submitted, doc["id"].(string))
	}
	for _, id := range submitted {
		waitSettled(t, ts.URL, id)
	}

	resp, doc := getJSON(t, ts.URL+"/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	got := ids(t, doc, "jobs")
	if fmt.Sprint(got) != fmt.Sprint(submitted) {
		t.Errorf("listing order %v, want submission order %v", got, submitted)
	}
	if _, present := doc["truncated"]; present {
		t.Errorf("full listing reports truncated: %v", doc)
	}
	if n, _ := doc["count"].(float64); int(n) != len(submitted) {
		t.Errorf("count = %v, want %d", doc["count"], len(submitted))
	}

	_, doc = getJSON(t, ts.URL+"/jobs?limit=3")
	got = ids(t, doc, "jobs")
	if fmt.Sprint(got) != fmt.Sprint(submitted[:3]) {
		t.Errorf("limited listing %v, want first three %v", got, submitted[:3])
	}
	if tr, _ := doc["truncated"].(bool); !tr {
		t.Errorf("limit=3 of 5 jobs did not report truncated: %v", doc)
	}
	if n, _ := doc["count"].(float64); int(n) != 3 {
		t.Errorf("limited count = %v, want 3", doc["count"])
	}

	// A limit the listing fits inside is not a truncation.
	_, doc = getJSON(t, ts.URL+"/jobs?limit=50")
	if _, present := doc["truncated"]; present {
		t.Errorf("roomy limit reports truncated: %v", doc)
	}
}

// scenePipeline builds a minimal one-stage pipeline with a unique name.
func scenePipeline(i int) string {
	return fmt.Sprintf(`{
		"name": "listing-%d",
		"stages": [
			{"name": "scene", "kind": "scene",
			 "scene": {"lines": 16, "samples": 16, "bands": 8, "seed": %d}}
		]
	}`, i, i+1)
}

func TestPipelinesListingOrderAndTruncation(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Workers: 4, QueueDepth: 32})

	var submitted []string
	for i := 0; i < 4; i++ {
		resp, doc := postJSON(t, ts.URL+"/pipelines", scenePipeline(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("pipeline submit %d = %d %v", i, resp.StatusCode, doc)
		}
		submitted = append(submitted, doc["id"].(string))
	}
	for _, id := range submitted {
		waitPipelineSettled(t, ts.URL, id)
	}

	resp, doc := getJSON(t, ts.URL+"/pipelines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	got := ids(t, doc, "pipelines")
	if fmt.Sprint(got) != fmt.Sprint(submitted) {
		t.Errorf("listing order %v, want submission order %v", got, submitted)
	}
	if _, present := doc["truncated"]; present {
		t.Errorf("full listing reports truncated: %v", doc)
	}

	_, doc = getJSON(t, ts.URL+"/pipelines?limit=2")
	got = ids(t, doc, "pipelines")
	if fmt.Sprint(got) != fmt.Sprint(submitted[:2]) {
		t.Errorf("limited listing %v, want first two %v", got, submitted[:2])
	}
	if tr, _ := doc["truncated"].(bool); !tr {
		t.Errorf("limit=2 of 4 pipelines did not report truncated: %v", doc)
	}
	if n, _ := doc["count"].(float64); int(n) != 2 {
		t.Errorf("limited count = %v, want 2", doc["count"])
	}
}
