package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// writerGate stands in for a journal's fsync. Every batch the writer
// commits is already written when it reaches the gate; it announces itself
// on entered and waits for a verdict — nil to sync, an error to fail the
// batch — until open lets every batch through.
type writerGate struct {
	entered chan struct{}
	verdict chan error
	opened  chan struct{}
	open    func()
}

func gateWriter(jl *Journal) *writerGate {
	g := &writerGate{entered: make(chan struct{}), verdict: make(chan error), opened: make(chan struct{})}
	g.open = sync.OnceFunc(func() { close(g.opened) })
	jl.mu.Lock()
	jl.syncFile = func(f *os.File) error {
		select {
		case g.entered <- struct{}{}:
		case <-g.opened:
			return f.Sync()
		}
		select {
		case err := <-g.verdict:
			if err != nil {
				return err
			}
		case <-g.opened:
		}
		return f.Sync()
	}
	jl.mu.Unlock()
	return g
}

// held waits until the writer brings its next batch to the gate.
func (g *writerGate) held(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the journal's fsync")
	}
}

// pendingRecords counts the records framed into jl's pending batch.
func pendingRecords(jl *Journal) int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	bodies, _ := journalFrames(append(make([]byte, journalHeaderLen), jl.pending...))
	return len(bodies)
}

// waitPending polls until jl's pending batch holds n records.
func waitPending(t *testing.T, jl *Journal, n int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d records pending", n), func() bool { return pendingRecords(jl) == n })
}

// eventually polls cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// framedTypes lists the record types of dir's journal file followed by
// those jl has pending: the file as it reads once the writer catches up.
func framedTypes(t *testing.T, jl *Journal, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	jl.mu.Lock()
	b = append(b, jl.pending...)
	jl.mu.Unlock()
	recs, _, err := decodeJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, rec := range recs {
		types = append(types, rec.Type)
	}
	return types
}

// lockFree fails unless mu can be taken: nobody holds it across a batch
// the gate holds.
func lockFree(t *testing.T, mu *sync.Mutex) {
	t.Helper()
	got := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock()
		close(got)
	}()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the scheduler lock is held while a journal batch waits for its fsync")
	}
}

// The submitted record is the first record of its job's story in the file,
// by construction: enqueue frames it under the scheduler lock, before any
// worker can pop the job. The test first freezes the journal's pending
// buffer, and no worker may pop the job while its submitted record waits
// to be framed. It then holds the journal's writer at its first fsync while
// the only worker runs the job, and waits for the submission to be durable
// — as admit does before the ack — only once the worker has framed its
// started record.
func TestSubmittedRecordLeadsJobStory(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	g := gateWriter(jl)
	defer g.open()
	running := make(chan struct{})
	s := New(Config{Workers: 1, Journal: jl, OnJobRunning: func(*Job) { close(running) }})
	spec := tinySpec(t)
	spec.JournalPayload = []byte(`{"label":"parked"}`)
	type admitted struct {
		j   *Job
		sub journalWrite
		err error
	}
	enqueued := make(chan admitted, 1)
	jl.mu.Lock()
	go func() {
		j, _, sub, err := s.enqueue(context.Background(), spec, spec.cacheKey(), nil)
		enqueued <- admitted{j, sub, err}
	}()
	select {
	case <-running:
		jl.mu.Unlock()
		t.Fatal("a worker popped the job before its submitted record was framed")
	case <-time.After(20 * time.Millisecond):
	}
	jl.mu.Unlock()
	e := <-enqueued
	if e.err != nil {
		t.Fatal(e.err)
	}
	j, sub := e.j, e.sub
	<-running
	eventually(t, "the worker's started record", func() bool {
		return strings.Contains(strings.Join(framedTypes(t, jl, dir), " "), recStarted)
	})
	lockFree(t, &s.mu)
	acked := make(chan struct{})
	go func() {
		s.journalWait(sub)
		close(acked)
	}()
	select {
	case <-acked:
		t.Fatal("the submission was acknowledged while its batch waited for its fsync")
	case <-time.After(10 * time.Millisecond):
	}
	g.open()
	<-acked
	<-j.Done()
	s.Close() // the finished record follows the ack; the worker's exit follows it
	jl.Close()
	if got := journalTypes(t, dir); !reflect.DeepEqual(got, []string{recSubmitted, recStarted, recFinished}) {
		t.Fatalf("journal holds %v, want submitted, started, finished", got)
	}
}

// No attempt's outcome is used before its started record is durable: the
// record's fsync overlaps the run, but while the gate holds that batch the
// finished run has recorded no attempt and the job has not settled.
func TestStartedDurableBeforeOutcome(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	reg := telemetry.NewRegistry()
	popped, resume := make(chan struct{}), make(chan struct{})
	s := New(Config{Workers: 1, Journal: jl, Registry: reg, OnJobRunning: func(*Job) {
		close(popped)
		<-resume
	}})
	defer s.Close()
	j, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	<-popped
	g := gateWriter(jl)
	defer g.open()
	close(resume)
	g.held(t)
	if types := framedTypes(t, jl, dir); !reflect.DeepEqual(types, []string{recSubmitted, recStarted}) {
		t.Fatalf("journal holds %v with the started batch held, want submitted, started", types)
	}
	// The run returns its report after it counts its flops.
	eventually(t, "the attempt's run to return", func() bool {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(b.String(), `hyperhet_mpi_flops_total{rank="0"}`)
	})
	for i := 0; i < 20; i++ {
		select {
		case <-j.Done():
			t.Fatal("the job settled while its started record waited for its fsync")
		default:
		}
		if a := j.Attempts(); len(a) != 0 {
			t.Fatalf("attempt %+v recorded while its started record waited for its fsync", a)
		}
		time.Sleep(time.Millisecond)
	}
	g.verdict <- nil
	<-j.Done()
	if a := j.Attempts(); j.State() != StateCompleted || len(a) != 1 {
		t.Fatalf("job %s with attempts %+v, want completed after one", j.State(), a)
	}
}

// Submit acknowledges only what is durable: a queued job once its
// submitted record is, a hit at admission once its whole story is.
func TestJournalAckWaitsForDurability(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	s := New(Config{Workers: 1, Journal: jl})
	defer s.Close()
	spec := tinySpec(t)
	runToEnd(t, s, spec)
	eventually(t, "the first job's finished record", func() bool { return len(journalTypes(t, dir)) == 3 })
	g := gateWriter(jl)
	defer g.open()
	queued := spec
	queued.NoCache = true
	for _, tc := range []struct {
		name  string
		spec  JobSpec
		story []string
	}{
		{"hit", spec, []string{recSubmitted, recFinished}},
		{"queued", queued, []string{recSubmitted}},
	} {
		before := len(journalTypes(t, dir))
		acked := make(chan *Job, 1)
		go func() {
			j, err := s.Submit(context.Background(), tc.spec)
			if err != nil {
				t.Error(err)
			}
			acked <- j
		}()
		g.held(t)
		// A worker may add the queued job's started record to the batch.
		if types := journalTypes(t, dir)[before:]; len(types) < len(tc.story) || !reflect.DeepEqual(types[:len(tc.story)], tc.story) {
			t.Fatalf("%s: the held batch holds %v, want it to open with %v", tc.name, types, tc.story)
		}
		select {
		case <-acked:
			t.Fatalf("%s: Submit returned while its records waited for their fsync", tc.name)
		case <-time.After(10 * time.Millisecond):
		}
		g.verdict <- nil
		if j := <-acked; j == nil || (tc.name == "hit") != (j.State() == StateCompleted && j.FromCache()) {
			t.Fatalf("%s: Submit returned %+v", tc.name, j)
		}
	}
}

// Appenders that arrive while a batch waits for its fsync share the next
// batch: one write and one fsync for all of them, their records in the
// order they were enqueued. Replay folds them.
func TestJournalGroupCommitsWaitingAppenders(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	g := gateWriter(jl)
	defer g.open()
	const n = 8
	errs := make(chan error, n+1)
	go func() { errs <- jl.Append(Record{Type: recSubmitted, Job: "job-0"}) }()
	g.held(t)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("job-%d", i)
		go func() {
			errs <- jl.Append(Record{Type: recSubmitted, Job: id}, Record{Type: recFinished, Job: id, State: string(StateCompleted)})
		}()
		waitPending(t, jl, 2*i) // enqueued before the next appender starts
	}
	g.verdict <- nil
	g.held(t)
	g.verdict <- nil
	for i := 0; i <= n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := jl.syncs.Load(); got != 2 {
		t.Fatalf("%d batches synced, want the held one and one for all %d waiting appenders", got, n)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != n+1 {
		t.Fatalf("replay folded %d jobs, want %d", len(jobs), n+1)
	}
	for i, jj := range jobs {
		if want := fmt.Sprintf("job-%d", i); jj.ID != want || jj.Finished != (i > 0) {
			t.Fatalf("story %d is %s (finished %v), want %s in enqueue order", i, jj.ID, jj.Finished, want)
		}
	}
}

// A batch whose write or fsync fails fails every waiter in it, each of its
// records counted once as a journal error, and is cut from the file again:
// the next batch succeeds, and replay reads every batch that did.
func TestJournalFailedBatch(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	s := New(Config{Workers: 1, Journal: jl, Registry: telemetry.NewRegistry()})
	defer s.Close()
	g := gateWriter(jl)
	defer g.open()
	pipe := func(id string) Record { return Record{Type: RecPipelineSubmitted, Pipeline: id} }
	good := func() float64 { return s.tel.journal.With(RecPipelineSubmitted).Value() }
	pipelines := func() []string {
		st, err := ReplayJournalState(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats.TornTailTruncations != 0 {
			t.Fatalf("replay found a torn tail: %+v", st.Stats)
		}
		var ids []string
		for _, jp := range st.Pipelines {
			ids = append(ids, jp.ID)
		}
		return ids
	}

	var wg sync.WaitGroup
	appendAsync := func(recs ...Record) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.JournalAppend(recs...)
		}()
	}
	appendAsync(pipe("pipe-1"))
	g.held(t)
	// Three waiters, four records, all in the next batch.
	appendAsync(pipe("pipe-2"))
	waitPending(t, jl, 1)
	appendAsync(pipe("pipe-3"))
	waitPending(t, jl, 2)
	appendAsync(pipe("pipe-4"), Record{Type: RecPipelineFinished, Pipeline: "pipe-4", State: "completed"})
	waitPending(t, jl, 4)
	g.verdict <- nil
	g.held(t)
	// The batch is written; tear it, as a short write would, and fail it.
	st, err := os.Stat(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(JournalPath(dir), st.Size()-5); err != nil {
		t.Fatal(err)
	}
	g.verdict <- errors.New("injected short write")
	wg.Wait()
	if got := s.tel.journalEr.Value(); got != 4 {
		t.Fatalf("journal errors = %v, want the failed batch's 4 records once each", got)
	}
	if got := good(); got != 1 {
		t.Fatalf("%v pipeline_submitted records counted durable, want 1", got)
	}
	if got := pipelines(); !reflect.DeepEqual(got, []string{"pipe-1"}) {
		t.Fatalf("replay after the failed batch reads %v, want pipe-1", got)
	}

	// An fsync failure, seen by a direct Append; then a batch that succeeds.
	injected := errors.New("injected fsync failure")
	failed := make(chan error, 1)
	go func() { failed <- jl.Append(pipe("pipe-5")) }()
	g.held(t)
	g.verdict <- injected
	if err := <-failed; !errors.Is(err, injected) {
		t.Fatalf("Append in a failed batch = %v, want the fsync error", err)
	}
	appendAsync(pipe("pipe-6"))
	g.held(t)
	g.verdict <- nil
	wg.Wait()
	if got := good(); got != 2 {
		t.Fatalf("%v pipeline_submitted records counted durable, want 2", got)
	}
	if got := pipelines(); !reflect.DeepEqual(got, []string{"pipe-1", "pipe-6"}) {
		t.Fatalf("replay reads %v, want pipe-1 and pipe-6", got)
	}
	if got := jl.syncs.Load(); got != 2 {
		t.Fatalf("%d batches counted synced, want the 2 that succeeded", got)
	}
}

// Close commits what is pending and stops the writer. An Append after
// Close fails, and Close again is a no-op.
func TestJournalCloseDrainsAndStopsWriter(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := gateWriter(jl)
	defer g.open()
	errs := make(chan error, 2)
	go func() { errs <- jl.Append(Record{Type: recSubmitted, Job: "job-1"}) }()
	g.held(t)
	go func() { errs <- jl.Append(Record{Type: recSubmitted, Job: "job-2"}) }()
	waitPending(t, jl, 1)
	closed := make(chan error, 1)
	go func() { closed <- jl.Close() }()
	eventually(t, "Close to begin", func() bool {
		jl.mu.Lock()
		defer jl.mu.Unlock()
		return jl.closed
	})
	if err := jl.Append(Record{Type: recSubmitted, Job: "job-3"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	g.open()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Append pending at Close: %v", err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	select {
	case <-jl.exited:
	default:
		t.Fatal("the writer goroutine outlived Close")
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-1" || jobs[1].ID != "job-2" {
		t.Fatalf("replay after Close folded %d jobs, want job-1 and job-2", len(jobs))
	}
}
