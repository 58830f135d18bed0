package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	hyperhet "repro"
)

// faultJob is a run-mode submission whose injected crash exhausts its
// single attempt: it settles failed with a rank-death error, which is
// exactly what feeds the backend circuit breaker.
const faultJob = `{
	"algorithm": "atdca", "mode": "run", "network": "fully-het", "targets": 4,
	"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
	"faults": {"crashes": [{"rank": 2, "at": 0.0001, "attempt": 1}], "max_attempts": 1}
}`

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
// submission with 429 and a Retry-After header. The first job crashes
// instantly on every attempt and sits in a long retry backoff, so it
// stays in flight however fast the machine is.
func TestSubmitShed429RetryAfter(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{
		Workers: 1, CacheEntries: -1,
		RetryBaseDelay: 2 * time.Second, RetryMaxDelay: 2 * time.Second,
		Guard: hyperhet.NewGuard(hyperhet.GuardConfig{
			Limiter:        hyperhet.GuardLimiterConfig{Initial: 1, Min: 1, Max: 1},
			DisableBreaker: true,
		}),
	})
	const blocker = `{
		"algorithm": "atdca", "network": "fully-het", "targets": 4,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
		"faults": {"crashes": [{"rank": 1, "at": 0, "attempt": -1}], "max_attempts": 10}
	}`

	resp, doc := postJSON(t, ts.URL+"/submit", blocker)
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

// A tripped backend circuit breaker turns identical submissions into
// 503s with Retry-After, flips /readyz to "breaker-open", and surfaces
// in the /stats guard block. A clean job on a different backend profile
// is admitted throughout.
func TestSubmitBreakerOpen503(t *testing.T) {
	const pinned = 1024
	ts := testServer(t, hyperhet.SchedulerConfig{
		Guard: hyperhet.NewGuard(hyperhet.GuardConfig{
			Limiter: hyperhet.GuardLimiterConfig{Initial: pinned, Min: pinned, Max: pinned},
			Breaker: hyperhet.GuardBreakerConfig{Threshold: 1, Cooldown: time.Minute},
		}),
	})

	resp, doc := postJSON(t, ts.URL+"/submit", faultJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fault submit = %d %v, want 202", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	job := waitSettled(t, ts.URL, id)
	if job["state"] != "failed" {
		t.Fatalf("fault job settled as %v, want failed", job["state"])
	}

	resp, doc = postJSON(t, ts.URL+"/submit", faultJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit against tripped backend = %d %v, want 503", resp.StatusCode, doc)
	}
	retryAfterSeconds(t, resp)

	// Readiness reports the breaker distinctly from draining.
	resp, doc = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || doc["status"] != "breaker-open" {
		t.Fatalf("readyz = %d %v, want 503 breaker-open", resp.StatusCode, doc)
	}

	// The guard block names the open breaker.
	_, stats := getJSON(t, ts.URL+"/stats")
	guard, ok := stats["guard"].(map[string]any)
	if !ok {
		t.Fatalf("stats carries no guard block: %v", stats)
	}
	if open, _ := guard["breakers_open"].(float64); open != 1 {
		t.Fatalf("guard breakers_open = %v, want 1", guard["breakers_open"])
	}
	if rejects, _ := stats["breaker_rejects"].(float64); rejects != 1 {
		t.Fatalf("stats breaker_rejects = %v, want 1", stats["breaker_rejects"])
	}

	// A clean sequential job has no backend at all, so no breaker ever
	// applies to it: admitted.
	resp, doc = postJSON(t, ts.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean submit while sibling breaker open = %d %v, want 202", resp.StatusCode, doc)
	}
}
