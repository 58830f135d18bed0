package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	hyperhet "repro"
)

// longCheckpointedJob runs for roughly a second of real time, so a test
// can reliably catch it mid-flight even on a single-CPU machine.
const longCheckpointedJob = `{
	"algorithm": "atdca", "mode": "run", "network": "fully-het",
	"targets": 10, "checkpoint": true,
	"scene": {"lines": 256, "samples": 128, "bands": 48, "seed": 3}
}`

func TestReadyzAndJobsListing(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{})

	resp, doc := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("readyz = %d %v, want 200 ok", resp.StatusCode, doc)
	}

	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct labels keep the jobs out of each other's cache slots
		// without disabling caching.
		body := fmt.Sprintf(`{"algorithm": "atdca", "mode": "sequential", "targets": 4,
			"label": "list-%d", "no_cache": true,
			"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}}`, i)
		resp, doc := postJSON(t, ts.URL+"/submit", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d %v", i, resp.StatusCode, doc)
		}
		id, _ := doc["id"].(string)
		ids = append(ids, id)
		waitSettled(t, ts.URL, id)
	}

	resp, doc = getJSON(t, ts.URL+"/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs listing = %d", resp.StatusCode)
	}
	jobs, _ := doc["jobs"].([]any)
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3: %v", len(jobs), doc)
	}
	for i, raw := range jobs {
		j, _ := raw.(map[string]any)
		if j["id"] != ids[i] {
			t.Fatalf("listing order: got %v at %d, want %s", j["id"], i, ids[i])
		}
	}

	resp, doc = getJSON(t, ts.URL+"/jobs?state=completed&limit=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered listing = %d", resp.StatusCode)
	}
	if jobs, _ := doc["jobs"].([]any); len(jobs) != 2 {
		t.Fatalf("limit=2 listed %d jobs: %v", len(jobs), doc)
	}

	resp, doc = getJSON(t, ts.URL+"/jobs?state=queued")
	if jobs, _ := doc["jobs"].([]any); resp.StatusCode != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("queued listing = %d %v, want empty", resp.StatusCode, doc)
	}

	resp, _ = getJSON(t, ts.URL+"/jobs?state=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state filter = %d, want 400", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/jobs?limit=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
	}
}

// A checkpointed fault job whose rank dies mid-run resumes its retry from
// a completed round, and the job document says so.
func TestCheckpointResumeOverHTTP(t *testing.T) {
	ts := testServer(t, hyperhet.SchedulerConfig{Workers: 1})

	// Calibrate: a clean checkpointed run of the same spec gives the
	// virtual timeline, so the crash can be pinned to its middle.
	resp, doc := postJSON(t, ts.URL+"/submit", `{
		"algorithm": "atdca", "mode": "run", "network": "fully-het",
		"targets": 6, "checkpoint": true,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("calibration submit = %d %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	clean := waitSettled(t, ts.URL, id)
	if clean["state"] != "completed" {
		t.Fatalf("calibration job settled as %v (%v)", clean["state"], clean["error"])
	}
	result, _ := clean["result"].(map[string]any)
	vs, _ := result["virtual_seconds"].(float64)
	if vs <= 0 {
		t.Fatalf("calibration run reports no virtual time: %v", result)
	}
	if saves, _ := result["checkpoint_saves"].(float64); saves <= 0 {
		t.Fatalf("checkpointed run saved no snapshots: %v", result)
	}

	resp, doc = postJSON(t, ts.URL+"/submit", fmt.Sprintf(`{
		"algorithm": "atdca", "mode": "run", "network": "fully-het",
		"targets": 6, "checkpoint": true,
		"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3},
		"faults": {"crashes": [{"rank": 2, "at": %.9f, "attempt": 1}], "max_attempts": 3}}`, vs/2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fault submit = %d %v", resp.StatusCode, doc)
	}
	id, _ = doc["id"].(string)
	job := waitSettled(t, ts.URL, id)
	if job["state"] != "completed" {
		t.Fatalf("fault job settled as %v (%v)", job["state"], job["error"])
	}
	if att, _ := job["attempts"].(float64); att != 2 {
		t.Fatalf("attempts = %v, want 2", job["attempts"])
	}
	result, _ = job["result"].(map[string]any)
	if rfr, _ := result["resumed_from_round"].(float64); rfr < 1 {
		t.Fatalf("resumed_from_round = %v, want >= 1 (result %v)", result["resumed_from_round"], result)
	}
}

// The full restart story: a journaled server completes one job, drains
// with another mid-run, and its successor restores the finished job (with
// its cached result) while resuming the interrupted one under its
// original ID.
func TestJournalRestartResumesJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := hyperhet.SchedulerConfig{Workers: 1, QueueDepth: 16}

	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())

	resp, doc := postJSON(t, ts1.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %v", resp.StatusCode, doc)
	}
	finishedID, _ := doc["id"].(string)
	if st := waitSettled(t, ts1.URL, finishedID); st["state"] != "completed" {
		t.Fatalf("first job settled as %v", st["state"])
	}

	resp, doc = postJSON(t, ts1.URL+"/submit", longCheckpointedJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long submit = %d %v", resp.StatusCode, doc)
	}
	longID, _ := doc["id"].(string)
	// Poll the scheduler handle in-process: on a loaded single-CPU box,
	// HTTP round trips can be starved past the whole running window.
	lj, err := srv1.sched.Job(longID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for lj.State() != hyperhet.JobRunning {
		if s := lj.State(); s.Final() {
			t.Fatalf("long job settled as %s before the drain could catch it", s)
		}
		if time.Now().After(deadline) {
			t.Fatalf("long job never started running (state %s)", lj.State())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain: the long job is cancelled without a terminal journal record,
	// and while draining the API refuses new work but keeps answering
	// status and health queries.
	drained := make(chan struct{})
	go func() { srv1.drain(10 * time.Second); close(drained) }()
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not finish within its deadline")
	}
	resp, _ = getJSON(t, ts1.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts1.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("drain 503 carries no Retry-After header")
	}
	resp, _ = getJSON(t, ts1.URL+"/jobs/"+longID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status while drained = %d, want 200", resp.StatusCode)
	}
	ts1.Close()

	// Second boot over the same journal.
	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()

	// The finished job is queryable history again, result included.
	resp, doc = getJSON(t, ts2.URL+"/jobs/"+finishedID)
	if resp.StatusCode != http.StatusOK || doc["state"] != "completed" {
		t.Fatalf("restored job = %d %v", resp.StatusCode, doc)
	}
	if _, ok := doc["result"].(map[string]any); !ok {
		t.Fatalf("restored job lost its result: %v", doc)
	}

	// Its journaled result re-seeded the cache: an identical resubmission
	// completes from cache without recomputing.
	resp, doc = postJSON(t, ts2.URL+"/submit", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit = %d %v", resp.StatusCode, doc)
	}
	rerunID, _ := doc["id"].(string)
	if rerunID == finishedID || rerunID == longID {
		t.Fatalf("fresh submission reused a recovered id: %s", rerunID)
	}
	rerun := waitSettled(t, ts2.URL, rerunID)
	if rerun["state"] != "completed" || rerun["from_cache"] != true {
		t.Fatalf("resubmission = state %v from_cache %v, want completed from cache",
			rerun["state"], rerun["from_cache"])
	}

	// The interrupted job came back under its original ID and runs to
	// completion.
	long := waitSettled(t, ts2.URL, longID)
	if long["state"] != "completed" {
		t.Fatalf("resumed job settled as %v (%v)", long["state"], long["error"])
	}
	result, _ := long["result"].(map[string]any)
	if tg, _ := result["targets"].(float64); int(tg) != 10 {
		t.Fatalf("resumed run found %v targets, want 10", result["targets"])
	}
}

// A job's schedule is part of its journaled request: a submission with
// "balance": true reports a balanced result and one without does not, and
// each keeps its value through a restart — restored from the journal when
// it finished before, resumed when the restart interrupted it.
func TestBalanceSurvivesJournalRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := hyperhet.SchedulerConfig{Workers: 2, QueueDepth: 16, CacheEntries: -1, OnJobRunning: holdBlockers}
	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())
	submit := func(url, label string, balance bool) string {
		t.Helper()
		resp, doc := postJSON(t, url+"/submit", fmt.Sprintf(`{
			"algorithm": "atdca", "network": "fully-het", "targets": 4, "label": %q, "balance": %t,
			"scene": {"lines": 24, "samples": 16, "bands": 8, "seed": 3}}`, label, balance))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s balance=%t = %d %v", label, balance, resp.StatusCode, doc)
		}
		id, _ := doc["id"].(string)
		return id
	}
	check := func(job map[string]any, when string, balance bool) {
		t.Helper()
		result, _ := job["result"].(map[string]any)
		if got, _ := result["balanced"].(bool); job["state"] != "completed" || got != balance {
			t.Fatalf("%s job submitted with balance=%t: state %v (%v), balanced %v",
				when, balance, job["state"], job["error"], result["balanced"])
		}
	}

	finished := map[bool]string{}
	for _, balance := range []bool{true, false} {
		finished[balance] = submit(ts1.URL, "done", balance)
		check(waitSettled(t, ts1.URL, finished[balance]), "first-boot", balance)
	}
	held := map[bool]string{}
	for _, balance := range []bool{true, false} {
		held[balance] = submit(ts1.URL, "blocker", balance)
		j, err := srv1.sched.Job(held[balance])
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); j.State() != hyperhet.JobRunning; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("held job never started running (state %s)", j.State())
			}
		}
	}
	srv1.drain(10 * time.Second)
	ts1.Close()

	cfg.OnJobRunning = nil
	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()
	for balance, id := range finished {
		_, job := getJSON(t, ts2.URL+"/jobs/"+id)
		check(job, "restored", balance)
	}
	for balance, id := range held {
		check(waitSettled(t, ts2.URL, id), "resumed", balance)
	}
}

// A restart never drops a job it acknowledged: nine unfinished jobs come
// back on a server whose queue holds four, every original ID is listed
// when newServer returns, and every job completes. The restarted
// server's one worker parks on the first job it pops until the listing is
// checked, so all but that job must sit in the queue at once.
func TestRestartResumesEveryAcknowledgedJob(t *testing.T) {
	dir := t.TempDir()
	cfg := hyperhet.SchedulerConfig{Workers: 1, QueueDepth: 16, OnJobRunning: holdBlockers}
	srv1, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())
	var ids []string
	for i := 0; i < 9; i++ {
		body := tinyJob
		if i == 0 {
			body = blockerJob // holds the one worker: the other eight stay queued
		}
		resp, doc := postJSON(t, ts1.URL+"/submit", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d %v", i, resp.StatusCode, doc)
		}
		id, _ := doc["id"].(string)
		ids = append(ids, id)
		if i == 0 {
			j, err := srv1.sched.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); j.State() != hyperhet.JobRunning; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("blocker never started running (state %s)", j.State())
				}
			}
		}
	}
	srv1.drain(10 * time.Second)
	ts1.Close()

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	cfg.QueueDepth = 4
	cfg.OnJobRunning = func(*hyperhet.Job) { <-gate }
	srv2, err := newServer(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.close()
	}()
	defer release() // before the close above: a parked worker blocks it
	for _, id := range ids {
		if _, err := srv2.sched.Job(id); err != nil {
			t.Fatalf("acknowledged job %s not recovered: %v", id, err)
		}
	}
	release()
	for _, id := range ids {
		if st := waitSettled(t, ts2.URL, id); st["state"] != "completed" {
			t.Fatalf("recovered job %s settled %v (%v)", id, st["state"], st["error"])
		}
	}
}
