package sched

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
)

// appendRaw frames body as a journal record and appends it verbatim,
// bypassing Append's version stamping — for records replay must skip.
func appendRaw(t *testing.T, dir string, body []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	copy(frame[8:], body)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// replayJobs is ReplayJournalState cut down to the job stories; a missing
// journal has none.
func replayJobs(dir string) ([]*JournalJob, error) {
	st, err := ReplayJournalState(dir)
	if err != nil || st == nil {
		return nil, err
	}
	return st.Jobs, nil
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpoint.Snapshot{Algorithm: "ATDCA", Round: 3, Payload: []byte{1, 2, 3}}
	rep := &core.RunReport{Algorithm: core.ATDCA, WallTime: 1.5, Attempts: 1, ResumedFromRound: 3}
	records := []Record{
		{Type: recSubmitted, Job: "job-1", Request: json.RawMessage(`{"algorithm":"atdca"}`), CacheKey: "k1"},
		{Type: recStarted, Job: "job-1", Attempt: 1},
		{Type: recCheckpointed, Job: "job-1", Round: 3, Snapshot: checkpoint.Encode(snap)},
		{Type: recSubmitted, Job: "job-2", Request: json.RawMessage(`{"algorithm":"pct"}`)},
		{Type: recStarted, Job: "job-1", Attempt: 2},
		{Type: recFinished, Job: "job-1", State: string(StateCompleted), Report: marshalReport(rep)},
	}
	for _, rec := range records {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	j1 := jobs[0]
	if j1.ID != "job-1" || !j1.Finished || j1.State != StateCompleted || j1.Attempts != 2 {
		t.Fatalf("job-1 folded wrong: %+v", j1)
	}
	if j1.Report == nil || j1.Report.WallTime != 1.5 || j1.Report.ResumedFromRound != 3 {
		t.Fatalf("job-1 report did not round-trip: %+v", j1.Report)
	}
	if j1.Snapshot != nil {
		t.Fatal("finished job kept a resume snapshot")
	}
	j2 := jobs[1]
	if j2.ID != "job-2" || j2.Finished || string(j2.Request) != `{"algorithm":"pct"}` {
		t.Fatalf("job-2 folded wrong: %+v", j2)
	}

	// Reopening an existing journal appends after the old records.
	jl, err = OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := checkpoint.Snapshot{Algorithm: "PCT", Round: 1, Payload: []byte{9}}
	if err := jl.Append(Record{Type: recCheckpointed, Job: "job-2", Round: 1, Snapshot: checkpoint.Encode(snap2)}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	jobs, err = replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[1].Snapshot == nil || jobs[1].Snapshot.Round != 1 {
		t.Fatalf("append-after-reopen lost state: %+v", jobs[1])
	}
}

func TestReplayMissingJournal(t *testing.T) {
	st, err := ReplayJournalState(t.TempDir())
	if err != nil || st != nil {
		t.Fatalf("missing journal: state=%v err=%v, want nil/nil", st, err)
	}
}

// A torn final write — the crash artifact the journal exists to survive —
// must truncate the readable log without dropping earlier records.
func TestReplayTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	jl, _ := OpenJournal(dir)
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Append(Record{Type: recSubmitted, Job: "job-2"})
	jl.Close()
	path := filepath.Join(dir, journalFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(b) - 1; cut > len(b)-40; cut-- {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := replayJobs(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(jobs) != 1 || jobs[0].ID != "job-1" {
			t.Fatalf("cut=%d: replayed %+v, want exactly job-1", cut, jobs)
		}
	}
}

// A checksum-failing record ends the readable log; records before it
// survive, and replay neither panics nor errors.
func TestReplayCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	jl, _ := OpenJournal(dir)
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Append(Record{Type: recSubmitted, Job: "job-2"})
	jl.Append(Record{Type: recSubmitted, Job: "job-3"})
	jl.Close()
	path := filepath.Join(dir, journalFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's body (well past the header
	// and the first record).
	mid := journalHeaderLen + (len(b)-journalHeaderLen)/2
	b[mid] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || jobs[0].ID != "job-1" || len(jobs) >= 3 {
		t.Fatalf("corrupt middle record: replayed %d jobs (%+v)", len(jobs), jobs)
	}
}

// A record from an unknown schema version is validly framed, so replay
// skips it and keeps folding the records around it.
func TestReplaySkipsUnknownRecordVersion(t *testing.T) {
	dir := t.TempDir()
	jl, _ := OpenJournal(dir)
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Close()
	appendRaw(t, dir, []byte(`{"v":99,"type":"submitted","job":"job-9","future_field":true}`))
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(Record{Type: recFinished, Job: "job-1", State: string(StateFailed), Error: "boom"})
	jl.Close()

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-1" {
		t.Fatalf("unknown-version record leaked into the fold: %+v", jobs)
	}
	if !jobs[0].Finished || jobs[0].State != StateFailed || jobs[0].Error != "boom" {
		t.Fatalf("record after the skipped one was lost: %+v", jobs[0])
	}
}

// A damaged header is unrecoverable: nothing after it can be trusted.
func TestReplayRejectsBadHeader(t *testing.T) {
	dir := t.TempDir()
	jl, _ := OpenJournal(dir)
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Close()
	path := filepath.Join(dir, journalFileName)
	b, _ := os.ReadFile(path)
	b[0] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, err := ReplayJournalState(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("OpenJournal accepted a bad header")
	}
}

// A checkpointed record whose snapshot frame is damaged keeps the
// previous good snapshot: an unreadable checkpoint is indistinguishable
// from no checkpoint.
func TestReplayIgnoresCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	jl, _ := OpenJournal(dir)
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	good := checkpoint.Encode(checkpoint.Snapshot{Algorithm: "ATDCA", Round: 2, Payload: []byte{7}})
	jl.Append(Record{Type: recCheckpointed, Job: "job-1", Round: 2, Snapshot: good})
	bad := checkpoint.Encode(checkpoint.Snapshot{Algorithm: "ATDCA", Round: 3, Payload: []byte{8}})
	bad[len(bad)-1] ^= 0xff // break the snapshot's own CRC
	jl.Append(Record{Type: recCheckpointed, Job: "job-1", Round: 3, Snapshot: bad})
	jl.Close()

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Snapshot == nil || jobs[0].Snapshot.Round != 2 {
		t.Fatalf("fold did not keep the last good snapshot: %+v", jobs)
	}
}

// checkpointResumeSpec is a checkpointed fault job whose first attempt
// dies mid-run, calibrated so the retry resumes from a checkpointed round.
func checkpointResumeSpec(t testing.TB) JobSpec {
	tiny, _ := testScenes(t)
	spec := JobSpec{
		Mode:        ModeRun,
		Algorithm:   core.ATDCA,
		Network:     retryNet(t, 4),
		Cube:        tiny.Cube,
		CubeDigest:  CubeDigest(tiny.Cube),
		Checkpoint:  true,
		MaxAttempts: 3,
		Params:      core.Params{Targets: 4},
	}
	// Scale per-round compute above the fixed checkpoint-write latency
	// (as on any realistically sized scene) and calibrate the crash to
	// the middle of a clean run, so attempt 1 checkpoints some rounds
	// before rank 2 dies.
	spec.Params.WorkScale = 50
	clean, err := core.Run(spec.Network, core.ATDCA, core.Hetero, tiny.Cube, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	spec.Params.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: clean.WallTime / 2, Attempt: 1}}}
	return spec
}

// End-to-end through the scheduler: a journaled, checkpointed job crashes
// mid-run, the retry resumes from the checkpointed round, and the journal
// replays the whole story — attempts, resume round and final report.
func TestSchedulerJournalsCheckpointedJob(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})

	spec := checkpointResumeSpec(t)
	spec.JournalPayload = []byte(`{"algorithm":"atdca","checkpoint":true}`)
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCompleted {
		t.Fatalf("job settled as %s (err=%v)", j.State(), j.Err())
	}
	rep := j.Report()
	if len(j.Attempts()) != 2 {
		t.Fatalf("attempts = %d, want 2", len(j.Attempts()))
	}
	if rep.ResumedFromRound < 1 || rep.ResumedFromRound >= spec.Params.Targets {
		t.Fatalf("resumed from round %d, want mid-run in [1,%d)", rep.ResumedFromRound, spec.Params.Targets)
	}
	if j.FromCache() {
		t.Fatal("checkpointed job was served from cache")
	}
	s.Close()
	jl.Close()

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	jj := jobs[0]
	if jj.ID != j.ID() || !jj.Finished || jj.State != StateCompleted || jj.Attempts != 2 {
		t.Fatalf("journal story wrong: %+v", jj)
	}
	if string(jj.Request) != string(spec.JournalPayload) {
		t.Fatalf("request document did not round-trip: %q", jj.Request)
	}
	if jj.Report == nil || jj.Report.ResumedFromRound != rep.ResumedFromRound || jj.Report.WallTime != rep.WallTime {
		t.Fatalf("journaled report = %+v, want resume round %d", jj.Report, rep.ResumedFromRound)
	}
}

// An Adaptive job checkpoints like any other run: one checkpointed record
// per detection round, journaled before the finished one.
func TestSchedulerJournalsAdaptiveCheckpoints(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})
	tiny, _ := testScenes(t)
	spec := JobSpec{
		Mode:       ModeRun,
		Algorithm:  core.ATDCA,
		Variant:    core.Adaptive,
		Network:    retryNet(t, 4),
		Cube:       tiny.Cube,
		CubeDigest: CubeDigest(tiny.Cube),
		Checkpoint: true,
		Params:     core.Params{Targets: 4},
	}
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	jl.Close()
	if j.State() != StateCompleted || j.Report().Adaptive == nil {
		t.Fatalf("job settled as %s (err=%v), adaptive trace %v", j.State(), j.Err(), j.Report().Adaptive)
	}

	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	for _, rec := range recs {
		if rec.Type == recCheckpointed {
			rounds = append(rounds, rec.Round)
		}
	}
	if !slices.Equal(rounds, []int{1, 2, 3, 4}) {
		t.Fatalf("checkpointed records for rounds %v, want [1 2 3 4]", rounds)
	}
}

// Drain semantics: a running job is cancelled without a finished record,
// so a second scheduler over the same journal resumes it — same ID, seeded
// from its last checkpointed round — while a plain Close journals the
// cancellation as terminal.
func TestDrainDefersRunningJobToNextBoot(t *testing.T) {
	_, big := testScenes(t)
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})

	spec := JobSpec{
		Mode:       ModeRun,
		Algorithm:  core.ATDCA,
		Network:    retryNet(t, 4),
		Cube:       big.Cube,
		CubeDigest: CubeDigest(big.Cube),
		Checkpoint: true,
		Params:     core.Params{Targets: 8},
	}
	spec.JournalPayload = []byte(`{"algorithm":"atdca","targets":8}`)
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	s.Drain()
	jl.Close()
	if j.State() != StateCancelled {
		t.Fatalf("drained job settled as %s", j.State())
	}
	if _, err := s.Submit(context.Background(), tinySpec(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during/after drain = %v, want ErrClosed", err)
	}

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Finished {
		t.Fatalf("drained job journaled as finished: %+v", jobs)
	}

	// Second boot: resume under the original ID and run to completion.
	jl2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Journal: jl2})
	defer func() { s2.Close(); jl2.Close() }()
	resumed, err := s2.SubmitResumed(context.Background(), jobs[0], spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID() != j.ID() {
		t.Fatalf("resumed under id %s, want %s", resumed.ID(), j.ID())
	}
	if _, err := s2.Wait(context.Background(), resumed.ID()); err != nil {
		t.Fatal(err)
	}
	if resumed.State() != StateCompleted {
		t.Fatalf("resumed job settled as %s (err=%v)", resumed.State(), resumed.Err())
	}
	// If the first boot got far enough to checkpoint, the resumed run
	// must start past round zero; either way it completes with targets.
	if jobs[0].Snapshot != nil && resumed.Report().ResumedFromRound == 0 {
		t.Fatalf("journal held round-%d snapshot but the resumed run started from scratch", jobs[0].Snapshot.Round)
	}
	if got := len(resumed.Report().Detection.Targets); got != spec.Params.Targets {
		t.Fatalf("resumed run found %d targets, want %d", got, spec.Params.Targets)
	}
	// Fresh submissions never collide with the recovered ID.
	fresh, err := s2.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() == resumed.ID() {
		t.Fatalf("fresh job reused the recovered id %s", resumed.ID())
	}
}

// A finished job restores as queryable history with its journaled report,
// and a completed cacheable result re-seeds the result cache.
func TestRestoreFinishedJob(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})
	spec := tinySpec(t)
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	jl.Close()

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !jobs[0].Finished || jobs[0].State != StateCompleted {
		t.Fatalf("journal story wrong: %+v", jobs)
	}

	s2 := New(Config{Workers: 1})
	defer s2.Close()
	restored, err := s2.RestoreFinished(jobs[0], spec)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State() != StateCompleted || restored.Report() == nil {
		t.Fatalf("restored job: state=%s report=%v", restored.State(), restored.Report())
	}
	got, err := s2.Job(j.ID())
	if err != nil || got != restored {
		t.Fatalf("restored job not queryable by id: %v", err)
	}
	if _, err := s2.RestoreFinished(jobs[0], spec); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	// The journaled result serves an identical resubmission from cache.
	rerun, err := s2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Wait(context.Background(), rerun.ID()); err != nil {
		t.Fatal(err)
	}
	if !rerun.FromCache() {
		t.Fatal("restored result did not re-seed the cache")
	}
}

// A restart keeps a finished job's attempt count and start time: the
// retried job reports two attempts, a start and the queue time up to it
// after replay and restore, as it did live. Only the per-attempt history,
// which is not journaled, is gone.
func TestRestoreFinishedKeepsAttemptsAndStart(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})
	spec := checkpointResumeSpec(t)
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	live := j.Status()
	s.Close()
	jl.Close()
	if live.Attempts != 2 || live.Started.IsZero() {
		t.Fatalf("live job: %d attempts, started %v; want 2 and a start", live.Attempts, live.Started)
	}

	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1})
	defer s2.Close()
	restored, err := s2.RestoreFinished(jobs[0], spec)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Status()
	if got.Attempts != live.Attempts || len(got.AttemptHistory) != 0 {
		t.Fatalf("restored job: %d attempts, %d in history; want %d and none", got.Attempts, len(got.AttemptHistory), live.Attempts)
	}
	// The started record is written just before the live start is stamped.
	if !got.Started.Equal(jobs[0].Started) || got.Started.Before(got.Submitted) || got.Started.After(live.Started) {
		t.Fatalf("restored start %v, journaled %v; want it between submission %v and the live start %v",
			got.Started, jobs[0].Started, got.Submitted, live.Started)
	}
	if want := got.Started.Sub(got.Submitted).Milliseconds(); got.QueueMS != want || got.QueueMS > live.QueueMS+1 {
		t.Fatalf("restored queue_ms %d, want %d (live %d)", got.QueueMS, want, live.QueueMS)
	}
}

// Jobs lists everything the scheduler knows in ascending job order.
func TestJobsListing(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var want []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(context.Background(), tinySpec(t))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID())
		if _, err := s.Wait(context.Background(), j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	jobs := s.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.ID() != want[i] {
			t.Fatalf("listing order: got %s at %d, want %s", j.ID(), i, want[i])
		}
	}
}

// A resumed job keeps its journaled submit time, fixed before the job is
// published: listing concurrently with SubmitResumed is race-free (run
// under -race) and the older resumed job lists before a fresh one.
func TestJobsListingWhileResuming(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	stop := make(chan struct{})
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		for {
			select {
			case <-stop:
				return
			default:
				s.Jobs()
			}
		}
	}()
	fresh, err := s.Submit(context.Background(), tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().Add(-time.Hour)
	resumed, err := s.SubmitResumed(context.Background(), &JournalJob{ID: "job-9", Submitted: t0}, tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-listed
	jobs := s.Jobs()
	if len(jobs) != 2 || jobs[0] != resumed || jobs[1] != fresh {
		t.Fatalf("listing = %v, want the older resumed job first", jobs)
	}
	if got := resumed.Status().Submitted; !got.Equal(t0) {
		t.Fatalf("resumed job reports submitted %v, want the journaled %v", got, t0)
	}
}

// A resumed job was acknowledged before the restart, so the queue bound
// does not refuse it: SubmitResumed admits past QueueDepth while a fresh
// Submit still gets ErrQueueFull, and only that refusal counts as a
// rejection.
func TestSubmitResumedIgnoresQueueDepth(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := setGate(s)
	defer release()
	ctx := context.Background()
	blockSpec := tinySpec(t)
	blockSpec.Label = "blocker"
	blocker, err := s.Submit(ctx, blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning) // out of the queue, parked on the gate

	var resumed []*Job
	for _, id := range []string{"job-10", "job-11", "job-12"} {
		j, err := s.SubmitResumed(ctx, &JournalJob{ID: id}, tinySpec(t))
		if err != nil {
			t.Fatalf("resuming %s past the queue bound: %v", id, err)
		}
		resumed = append(resumed, j)
	}
	if _, err := s.Submit(ctx, tinySpec(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fresh submit over a full queue: err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Queued != 3 || st.Rejected != 1 {
		t.Fatalf("queued %d rejected %d, want 3 resumed jobs queued and 1 rejection", st.Queued, st.Rejected)
	}
	release()
	for _, j := range resumed {
		<-j.Done()
		if j.State() != StateCompleted {
			t.Fatalf("resumed job %s settled %s (%v)", j.ID(), j.State(), j.Err())
		}
	}
}

// ReplayJournalState exposes the replay health counters hyperhetd
// surfaces in /stats: records folded, torn tails truncated, unknown
// schema versions skipped.
func TestReplayStatsCounters(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Append(Record{Type: recFinished, Job: "job-1", State: string(StateCompleted)})
	jl.Close()
	// One validly framed record from a future schema, one torn write.
	appendRaw(t, dir, []byte(`{"v":99,"type":"submitted","job":"job-9"}`))
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 9, 9}); err != nil { // partial frame header
		t.Fatal(err)
	}
	f.Close()

	state, err := ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := ReplayStats{Records: 2, TornTailTruncations: 1, UnknownVersionSkips: 1}
	if state.Stats != want {
		t.Fatalf("stats = %+v, want %+v", state.Stats, want)
	}
	if len(state.Jobs) != 1 || !state.Jobs[0].Finished {
		t.Fatalf("fold lost the good story: %+v", state.Jobs)
	}
}

// Pipeline records and job records fold into disjoint stories even when
// interleaved in one journal file.
func TestReplayFoldsPipelineRecords(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(Record{Type: RecPipelineSubmitted, Pipeline: "pipe-1", Request: []byte(`{"p":1}`)})
	jl.Append(Record{Type: recSubmitted, Job: "job-1"})
	jl.Append(Record{Type: RecPipelineStage, Pipeline: "pipe-1", Stage: "scene", Report: []byte(`{"kind":"scene"}`)})
	jl.Append(Record{Type: RecPipelineStage, Pipeline: "pipe-1", Stage: "atdca", Report: []byte(`{"kind":"analyze"}`)})
	jl.Append(Record{Type: RecPipelineFinished, Pipeline: "pipe-2", State: "completed", Report: []byte(`{"id":"pipe-2"}`)})
	jl.Close()

	state, err := ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Jobs) != 1 || state.Jobs[0].ID != "job-1" {
		t.Fatalf("jobs = %+v, want exactly job-1", state.Jobs)
	}
	if len(state.Pipelines) != 2 {
		t.Fatalf("pipelines = %d, want 2", len(state.Pipelines))
	}
	p1, p2 := state.Pipelines[0], state.Pipelines[1]
	if p1.ID != "pipe-1" || p1.Finished || len(p1.Stages) != 2 || string(p1.Request) != `{"p":1}` {
		t.Fatalf("pipe-1 fold = %+v", p1)
	}
	if p2.ID != "pipe-2" || !p2.Finished || p2.State != "completed" {
		t.Fatalf("pipe-2 fold = %+v", p2)
	}
}

// journalTypes reads the raw record types of dir's journal, in file order.
func journalTypes(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
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

// The submitted record is the first record of its job's story in the file.
// The test parks the submitter where Submit sits during its fsync — the
// job already poppable, its submission not yet journaled — and lets the
// only worker run the job towards its started record.
func TestSubmittedRecordLeadsJobStory(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	s := New(Config{Workers: 1, Journal: jl, OnJobRunning: func(*Job) { close(running) }})
	spec := tinySpec(t)
	spec.JournalPayload = []byte(`{"label":"parked"}`)
	j, _, err := s.enqueue(context.Background(), spec, spec.cacheKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	// The job itself takes a millisecond: were the worker free to journal,
	// its records would be in the file long before this loop ends.
	for i := 0; i < 50; i++ {
		if types := journalTypes(t, dir); len(types) > 0 {
			t.Fatalf("records %v landed before the job's submitted record", types)
		}
		time.Sleep(time.Millisecond)
	}
	s.journalSubmitted(j, true)
	<-j.Done()
	s.Close() // the finished record follows the ack; the worker's exit follows it
	jl.Close()
	if got := journalTypes(t, dir); !reflect.DeepEqual(got, []string{recSubmitted, recStarted, recFinished}) {
		t.Fatalf("journal holds %v, want submitted, started, finished", got)
	}
}

// foldJournal does not care where in the file a story's records sit, but
// only the submitted record carries the request: a story cut off before
// it — which the order above rules out for journals written since — folds
// into a job nobody can resume or restore.
func TestFoldJournalStoryOrder(t *testing.T) {
	req := json.RawMessage(`{"algorithm":"atdca"}`)
	for _, tc := range []struct {
		name     string
		recs     []Record
		request  string
		attempts int
		finished bool
	}{
		{"in order", []Record{
			{Type: recSubmitted, Job: "job-1", Request: req},
			{Type: recStarted, Job: "job-1", Attempt: 1},
			{Type: recFinished, Job: "job-1", State: string(StateCompleted)},
		}, string(req), 1, true},
		{"started first, both present", []Record{
			{Type: recStarted, Job: "job-1", Attempt: 1},
			{Type: recSubmitted, Job: "job-1", Request: req},
		}, string(req), 1, false},
		{"orphan prefix: torn before submitted", []Record{
			{Type: recStarted, Job: "job-1", Attempt: 1},
		}, "", 1, false},
		{"orphan outcome: cache hit torn before submitted", []Record{
			{Type: recFinished, Job: "job-1", State: string(StateCompleted)},
		}, "", 0, true},
	} {
		jobs, _ := foldJournal(tc.recs)
		if len(jobs) != 1 {
			t.Fatalf("%s: %d jobs, want 1", tc.name, len(jobs))
		}
		jj := jobs[0]
		if string(jj.Request) != tc.request || jj.Attempts != tc.attempts || jj.Finished != tc.finished {
			t.Errorf("%s: folded to request %q, %d attempts, finished %v", tc.name, jj.Request, jj.Attempts, jj.Finished)
		}
	}
}
