package sched

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"
)

// A hit at admission is still refused like any other job: by a full queue
// (the bound counts queued jobs, and a hit would take no slot, but the
// refusal is the contract hyperhetd's 429 rests on) and by a closed
// scheduler. Admitted, it is never expired or cancelled, even with a
// context that is already dead.
func TestHitAtAdmissionRefusalsAndNoExpiry(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := setGate(s)
	defer release()
	runToEnd(t, s, tinySpec(t)) // caches tinySpec's result

	blocker := tinySpec(t)
	blocker.Label, blocker.NoCache = "blocker", true
	bj, err := s.Submit(context.Background(), blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bj, StateRunning)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	spec := tinySpec(t)
	spec.Timeout = time.Nanosecond
	hit, err := s.Submit(dead, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State() != StateCompleted || !hit.FromCache() || hit.Err() != nil {
		t.Fatalf("hit with a dead context: state %s fromCache=%v err %v, want completed from cache",
			hit.State(), hit.FromCache(), hit.Err())
	}

	filler := tinySpec(t)
	filler.NoCache = true
	if _, err := s.Submit(context.Background(), filler); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), tinySpec(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("hit into a full queue = %v, want ErrQueueFull", err)
	}
	release()
	s.Close()
	if _, err := s.Submit(context.Background(), tinySpec(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("hit on a closed scheduler = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Rejected != 2 || st.Expired != 0 {
		t.Fatalf("stats = %+v, want 1 cache hit, 2 rejected, 0 expired", st)
	}
}

// journalFrameEnds returns the file offset at which each intact frame of
// dir's journal ends.
func journalFrameEnds(t *testing.T, dir string) []int {
	t.Helper()
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	bodies, _ := journalFrames(b)
	ends, off := make([]int, len(bodies)), journalHeaderLen
	for i, body := range bodies {
		off += 8 + len(body)
		ends[i] = off
	}
	return ends
}

// A hit's story is submitted then finished, with no started between, and
// both records go out in one append. A tear between the two frames leaves
// an open story; on resume the job hits the restored result and settles at
// admission, appending only its finished record.
func TestHitAtAdmissionTornStoryResumesAsHit(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jl})
	spec := tinySpec(t)
	spec.JournalPayload = []byte(`{"label":"twin"}`)
	miss := runToEnd(t, s, spec)
	// The miss's finished record follows its Done(); wait for it, so the
	// file holds the two stories one after the other.
	for deadline := time.Now().Add(10 * time.Second); len(journalTypes(t, dir)) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the miss's finished record never landed: journal holds %v", journalTypes(t, dir))
		}
	}
	hit, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State() != StateCompleted || !hit.FromCache() {
		t.Fatalf("repeat: state %s fromCache=%v at admission, want completed from cache", hit.State(), hit.FromCache())
	}
	s.Close()
	jl.Close()

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
	want := []string{recSubmitted, recStarted, recFinished, recSubmitted, recFinished}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("journal holds %v, want %v", types, want)
	}
	sub, fin := recs[3], recs[4]
	if sub.Job != hit.ID() || fin.Job != hit.ID() || !sub.Time.Equal(fin.Time) {
		t.Fatalf("hit story %s@%v, %s@%v: want %s's two records stamped by one append",
			sub.Job, sub.Time, fin.Job, fin.Time, hit.ID())
	}

	// Tear inside the finished frame: the hit's story ends at submitted.
	ends := journalFrameEnds(t, dir)
	if err := os.Truncate(JournalPath(dir), int64(ends[3]+5)); err != nil {
		t.Fatal(err)
	}
	state, err := ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state.Stats.TornTailTruncations != 1 || len(state.Jobs) != 2 {
		t.Fatalf("replay of the torn journal: %+v, %d jobs", state.Stats, len(state.Jobs))
	}
	done, open := state.Jobs[0], state.Jobs[1]
	if done.ID != miss.ID() || !done.Finished || open.ID != hit.ID() || open.Finished {
		t.Fatalf("replayed stories %+v, %+v: want %s finished and %s open", done, open, miss.ID(), hit.ID())
	}

	jl2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	s2 := New(Config{Workers: 1, Journal: jl2})
	defer s2.Close()
	if _, err := s2.RestoreFinished(done, spec); err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.SubmitResumed(context.Background(), open, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID() != hit.ID() || resumed.State() != StateCompleted || !resumed.FromCache() {
		t.Fatalf("resumed %s: state %s fromCache=%v at admission, want %s completed from cache",
			resumed.ID(), resumed.State(), resumed.FromCache(), hit.ID())
	}
	if got := journalTypes(t, dir); !reflect.DeepEqual(got, append(want[:4:4], recFinished)) {
		t.Fatalf("journal after resume holds %v, want the kept submitted record and one finished", got)
	}
	state, err = ReplayJournalState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jj := state.Jobs[1]; !jj.Finished || jj.State != StateCompleted || string(jj.Request) != `{"label":"twin"}` {
		t.Fatalf("hit story after resume = %+v, want finished and completed with its request", jj)
	}
}
