package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	hyperhet "repro"
)

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

// A guard pinned at a limit of one in-flight job sheds the second
// submission with 429 and a Retry-After header. The first job is parked
// by holdBlockers, so it stays in flight however fast the machine is.
func TestSubmitShed429RetryAfter(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{
		Workers: 1, CacheEntries: -1, OnJobRunning: holdBlockers,
		Guard: hyperhet.NewGuard(hyperhet.GuardConfig{
			Limiter: hyperhet.GuardLimiterConfig{Initial: 1, Min: 1, Max: 1},
		}),
	})

	resp, doc := postJSON(t, ts.URL+"/submit", blockerJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d %v, want 202", resp.StatusCode, doc)
	}
	resp, doc = postJSON(t, ts.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d %v, want 429", resp.StatusCode, doc)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "submission shed (limit)") {
		t.Fatalf("429 error = %q, want a limit shed", msg)
	}
	retryAfterSeconds(t, resp)

	// The shed shows up in /stats and the guard block is present.
	_, stats := getJSON(t, ts.URL+"/stats")
	if shed, _ := stats["shed"].(float64); shed != 1 {
		t.Fatalf("stats shed = %v, want 1", stats["shed"])
	}
	if _, ok := stats["guard"].(map[string]any); !ok {
		t.Fatalf("stats carries no guard block: %v", stats)
	}
}

// Overload control never refuses chaos the client asked for: the same
// permanent-crash plan submitted again and again to a server built the
// way -shed builds it is admitted and run every time, settles failed
// with the rank-failure error every time, and leaves the server ready.
func TestSubmitRepeatedChaosServed(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Guard: hyperhet.NewGuard(hyperhet.GuardConfig{})})
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
