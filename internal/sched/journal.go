package sched

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// The job journal is an append-only write-ahead log of job lifecycle
// records, the durability layer behind hyperhetd's crash/restart story: a
// scheduler configured with a Journal appends a record at every lifecycle
// edge (submitted, started, checkpointed, finished), and a restarted
// process folds the log with ReplayJournalState to rebuild its state —
// finished jobs become queryable history again, unfinished jobs are
// resubmitted under their original IDs and resume from their last
// checkpointed round.
//
// The log is group-committed. An append only frames its records into an
// in-memory pending buffer; the file order is the order of those appends.
// One writer goroutine per open journal takes everything pending as one
// batch, writes it with one write and one fsync, and then wakes every
// appender whose records the batch held. So an appender never waits behind
// other appenders' fsyncs one by one: the records that arrive while a
// batch is in flight share the next fsync.
//
// File layout: an 8-byte header (magic "HHWJ" plus a little-endian uint32
// format version), then records framed as
//
//	[uint32 body length][uint32 CRC32-IEEE of body][JSON body]
//
// Replay trusts the framing only as far as it verifies: a truncated tail
// or a checksum mismatch ends the readable log (everything before it is
// kept — exactly the torn-final-write a crash produces), while a record
// whose frame is sound but whose schema version is unknown is skipped and
// replay continues.
const (
	journalMagic    = "HHWJ"
	journalFormat   = 1
	journalFileName = "journal.wal"
	// journalHeaderLen is the file header: magic + format version.
	journalHeaderLen = 8
	// maxRecordLen caps one record's body so a corrupt length field cannot
	// drive a giant allocation during replay.
	maxRecordLen = 64 << 20
)

// recordVersion is the schema version stamped into every record; replay
// skips records from other versions without aborting the fold.
const recordVersion = 1

// Journal record types, one per job lifecycle edge.
const (
	recSubmitted    = "submitted"
	recStarted      = "started"
	recCheckpointed = "checkpointed"
	recFinished     = "finished"
)

// Pipeline lifecycle record types, appended by the internal/flow engine
// (exported because flow owns the record content while this package owns
// the framing and the replay fold). Pipeline records set Record.Pipeline
// and leave Record.Job empty, so the two folds never cross.
const (
	// RecPipelineSubmitted opens a pipeline's journal story; Request
	// carries the raw submission document.
	RecPipelineSubmitted = "pipeline_submitted"
	// RecPipelineStage records one successfully completed stage; Stage
	// names it and Report carries the flow-encoded stage result.
	RecPipelineStage = "pipeline_stage"
	// RecPipelineFinished closes the story with the terminal state and
	// the final status document in Report.
	RecPipelineFinished = "pipeline_finished"
)

// Record is one journal entry. Only the fields of its Type are set.
type Record struct {
	// V is the record schema version (recordVersion at write time).
	V int `json:"v"`
	// Type is the lifecycle edge: submitted, started, checkpointed or
	// finished for jobs; the RecPipeline* constants for pipelines.
	Type string `json:"type"`
	// Job is the scheduler-assigned job ID (empty on pipeline records).
	Job string `json:"job,omitempty"`
	// Pipeline is the flow-engine pipeline ID (empty on job records).
	Pipeline string `json:"pipeline,omitempty"`
	// Stage is the stage name of a RecPipelineStage record.
	Stage string `json:"stage,omitempty"`
	// Time stamps the record (UTC; filled by Append when zero).
	Time time.Time `json:"time"`

	// Request (submitted) is the raw submission document — for hyperhetd,
	// the verbatim POST /submit body — from which a restarted server
	// rebuilds the JobSpec. CacheKey is the job's result-cache key, so a
	// restored completed result can re-seed the cache without rehashing
	// the scene.
	Request  json.RawMessage `json:"request,omitempty"`
	CacheKey string          `json:"cache_key,omitempty"`

	// Attempt (started) is the 1-based execution attempt beginning.
	Attempt int `json:"attempt,omitempty"`

	// Round and Snapshot (checkpointed) carry the master round state: the
	// frame is the versioned, checksummed checkpoint.Encode encoding, so a
	// damaged snapshot inside an intact record is detected independently.
	Round    int    `json:"round,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`

	// State, Error and Report (finished) record the terminal outcome.
	// Report is the JSON run report with trace events stripped.
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// Journal is an append-only, group-committed job log in a directory: its
// one writer goroutine makes the pending records durable with one write and
// one fsync per batch. Open with OpenJournal and Close when done; safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	wake    sync.Cond // the writer waits on it for records or for Close
	pending []byte    // framed records the next batch writes, in order
	next    *batch    // the batch pending records join (nil when none)
	closed  bool

	// The writer owns f and size until it exits; Close closes f after.
	f *os.File
	// size is the length of the file's written and synced prefix, where
	// the next batch goes.
	size int64
	// syncFile makes a written batch durable: (*os.File).Sync, unless a
	// test stands in for it. The writer reads it under mu.
	syncFile func(*os.File) error
	exited   chan struct{} // closed when the writer returns
	syncs    atomic.Uint64 // batches written and synced
}

// batch is one group commit: the records framed while it was pending.
// done closes once the batch is durable or has failed; err is set first.
type batch struct {
	done chan struct{}
	err  error
}

// wait blocks until b is durable and returns its error. A nil batch (an
// append of no records) is durable already.
func (b *batch) wait() error {
	if b == nil {
		return nil
	}
	<-b.done
	return b.err
}

// JournalPath returns the path of the journal file inside dir, for tools
// that inspect — or deliberately damage — the raw log (the crash
// simulation harness tears journals at arbitrary byte offsets).
func JournalPath(dir string) string {
	return filepath.Join(dir, journalFileName)
}

// OpenJournal opens (creating directory and file as needed) the journal in
// dir, positions it for appending and starts its writer goroutine, which
// Close stops. An existing file must carry the expected header; replay the
// records first with ReplayJournalState if the previous process may have
// left state behind.
//
// An existing file is first truncated to its readable prefix: a crash can
// leave a torn frame at the tail, and appending after those bytes would
// strand every later record behind frame damage — replay stops at the
// first bad frame, so a journal that survived two crashes would silently
// lose everything the middle process recorded.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: creating journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sched: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sched: opening journal: %w", err)
	}
	size := st.Size()
	if size == 0 {
		var hdr [journalHeaderLen]byte
		copy(hdr[:4], journalMagic)
		binary.LittleEndian.PutUint32(hdr[4:], journalFormat)
		if _, err := f.Write(hdr[:]); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sched: initializing journal: %w", err)
		}
		size = journalHeaderLen
	} else {
		b := make([]byte, size)
		if _, err := f.ReadAt(b, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("sched: reading journal: %w", err)
		}
		if err := checkJournalHeader(b); err != nil {
			f.Close()
			return nil, err
		}
		if _, n := journalFrames(b); int64(n) < size {
			size = int64(n)
			if err := f.Truncate(size); err != nil {
				f.Close()
				return nil, fmt.Errorf("sched: truncating torn journal tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("sched: syncing truncated journal: %w", err)
			}
		}
	}
	jl := &Journal{f: f, size: size, syncFile: (*os.File).Sync, exited: make(chan struct{})}
	jl.wake.L = &jl.mu
	go jl.writer()
	return jl, nil
}

func checkJournalHeader(hdr []byte) error {
	if len(hdr) < journalHeaderLen || string(hdr[:4]) != journalMagic {
		return fmt.Errorf("sched: %q is not a job journal (bad magic)", journalFileName)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:journalHeaderLen]); v != journalFormat {
		return fmt.Errorf("sched: journal format %d (this build reads %d)", v, journalFormat)
	}
	return nil
}

// Append frames the records, in order, into the pending batch and waits
// until that batch is durable: enqueue, then wait. The records of one
// Append are contiguous in the file, but a tear can still cut a batch
// between frames, so replay may see a prefix of it. A nil journal is a
// no-op.
func (jl *Journal) Append(recs ...Record) error {
	if jl == nil {
		return nil
	}
	b, err := jl.enqueue(recs...)
	if err != nil {
		return err
	}
	return b.wait()
}

// enqueue frames recs and adds them, in order, to the pending batch, which
// it returns. It neither writes nor waits — the writer does both — so a
// caller may hold its own lock across it to fix where its records go in
// the file.
func (jl *Journal) enqueue(recs ...Record) (*batch, error) {
	var frames []byte
	now := time.Now().UTC()
	for _, rec := range recs {
		rec.V = recordVersion
		if rec.Time.IsZero() {
			rec.Time = now
		}
		body, err := json.Marshal(&rec)
		if err != nil {
			return nil, fmt.Errorf("sched: encoding journal record: %w", err)
		}
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(body)))
		frames = binary.LittleEndian.AppendUint32(frames, crc32.ChecksumIEEE(body))
		frames = append(frames, body...)
	}
	if len(frames) == 0 {
		return nil, nil
	}

	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil, errors.New("sched: journal closed")
	}
	if jl.next == nil {
		jl.next = &batch{done: make(chan struct{})}
		jl.wake.Signal()
	}
	jl.pending = append(jl.pending, frames...)
	return jl.next, nil
}

// writer commits batches until the journal is closed and nothing is
// pending. Two buffers take turns: appenders fill one while the other is
// written.
func (jl *Journal) writer() {
	defer close(jl.exited)
	var spare []byte
	jl.mu.Lock()
	for {
		for jl.next == nil && !jl.closed {
			jl.wake.Wait()
		}
		b, buf, syncFile := jl.next, jl.pending, jl.syncFile
		if b == nil { // closed, and everything pending is committed
			jl.mu.Unlock()
			return
		}
		jl.next, jl.pending = nil, spare[:0]
		jl.mu.Unlock()

		b.err = jl.commit(buf, syncFile)
		close(b.done)
		spare = buf

		jl.mu.Lock()
	}
}

// commit writes one batch after the synced prefix and syncs it. A batch
// whose write or fsync fails is cut off again, so the next batch follows
// the last good one and replay reads every batch that succeeded.
func (jl *Journal) commit(buf []byte, syncFile func(*os.File) error) error {
	_, err := jl.f.WriteAt(buf, jl.size)
	if err == nil {
		err = syncFile(jl.f)
	}
	if err != nil {
		// Best effort: the next batch is written over what is left, and a
		// record of this batch that survives anyway was reported failed,
		// not lost — its appender was told it may not be durable.
		_ = jl.f.Truncate(jl.size)
		return fmt.Errorf("sched: committing journal batch: %w", err)
	}
	jl.size += int64(len(buf))
	jl.syncs.Add(1)
	return nil
}

// Close commits whatever is pending, stops the writer and closes the
// file. Further Appends fail; Close is idempotent.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	already := jl.closed
	jl.closed = true
	jl.wake.Signal()
	jl.mu.Unlock()
	<-jl.exited
	if already {
		return nil
	}
	return jl.f.Close()
}

// JournalJob is one job's folded journal story: the latest state implied
// by its records, in submission order across the log.
type JournalJob struct {
	// ID is the job's original scheduler ID, preserved across restarts.
	ID string
	// Request is the raw submission document from the submitted record.
	Request []byte
	// CacheKey is the job's result-cache key ("" when uncacheable).
	CacheKey string
	// Submitted is the original submission time.
	Submitted time.Time
	// Attempts is the attempt number of the last started record: the
	// attempts the job's last run consumed, the count its report gives.
	Attempts int
	// Started is the time of the first started record (zero when none).
	Started time.Time
	// Finished reports whether a finished record closed the story; the
	// remaining fields below are set only in that case (except Snapshot,
	// set only for unfinished jobs).
	Finished   bool
	FinishedAt time.Time
	// State is the terminal lifecycle state of a finished job.
	State State
	// Error is the terminal error message ("" on success).
	Error string
	// Report is the completed run report (trace events stripped).
	Report *core.RunReport
	// Snapshot is the latest checkpointed master round state of an
	// unfinished job; a resubmitted job seeds its store from it and
	// resumes at Snapshot.Round.
	Snapshot *checkpoint.Snapshot
}

// JournalPipeline is one pipeline's folded journal story: the submission
// document, every stage completed so far, and the terminal outcome if a
// finished record closed the story. The flow engine interprets the raw
// stage and status documents; this package only folds the frames.
type JournalPipeline struct {
	// ID is the pipeline's original flow-engine ID.
	ID string
	// Request is the raw submission document from the submitted record.
	Request []byte
	// Submitted is the original submission time.
	Submitted time.Time
	// Stages maps completed stage names to their flow-encoded results; a
	// resumed pipeline restores these stages instead of re-running them.
	Stages map[string]json.RawMessage
	// Finished reports whether a finished record closed the story; the
	// fields below are set only in that case.
	Finished   bool
	FinishedAt time.Time
	// State is the terminal lifecycle state string of a finished pipeline.
	State string
	// Error is the terminal error message ("" on success).
	Error string
	// Status is the flow-encoded final status document.
	Status json.RawMessage
}

// ReplayStats counts what a journal replay saw, the numbers hyperhetd
// surfaces in /stats: records folded, torn-tail truncations (0 or 1 — a
// damaged frame ends the readable log), records skipped for an unknown
// schema version, and frames whose JSON would not parse.
type ReplayStats struct {
	// Records is the number of records decoded and folded.
	Records int `json:"records_replayed"`
	// TornTailTruncations is 1 when a truncated or checksum-failing frame
	// ended the readable log early, 0 on a clean read.
	TornTailTruncations int `json:"torn_tail_truncations"`
	// UnknownVersionSkips counts intact frames written by another record
	// schema version and skipped.
	UnknownVersionSkips int `json:"unknown_version_skips"`
	// UnreadableSkips counts intact frames whose JSON body would not
	// parse.
	UnreadableSkips int `json:"unreadable_skips"`
}

// JournalState is everything a replayed journal describes: job stories,
// pipeline stories, and the replay counters.
type JournalState struct {
	Jobs      []*JournalJob
	Pipelines []*JournalPipeline
	Stats     ReplayStats
}

// ReplayJournalState reads the journal in dir and folds it into job and
// pipeline stories, each list ordered by first appearance, plus replay
// counters. A missing journal file yields (nil, nil); a damaged tail
// truncates the readable log without error; a damaged header is an error,
// since nothing after it can be trusted.
func ReplayJournalState(dir string) (*JournalState, error) {
	b, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sched: reading journal: %w", err)
	}
	recs, stats, err := decodeJournal(b)
	if err != nil {
		return nil, err
	}
	st := &JournalState{Stats: stats}
	st.Jobs, st.Pipelines = foldJournal(recs)
	return st, nil
}

// journalFrames walks the framed records after the header and returns
// the body of every intact frame and the length of the readable prefix:
// the header plus those frames, up to the first truncated, oversized or
// checksum-failing one. Beyond that point the framing itself is
// untrustworthy, so the prefix is all replay reads and all OpenJournal
// may append after.
func journalFrames(b []byte) (bodies [][]byte, end int) {
	end = journalHeaderLen
	for end+8 <= len(b) {
		n := binary.LittleEndian.Uint32(b[end:])
		want := binary.LittleEndian.Uint32(b[end+4:])
		if n > maxRecordLen || end+8+int(n) > len(b) {
			break
		}
		body := b[end+8 : end+8+int(n)]
		if crc32.ChecksumIEEE(body) != want {
			break
		}
		bodies = append(bodies, body)
		end += 8 + int(n)
	}
	return bodies, end
}

// decodeJournal parses the readable prefix's records. A damaged frame —
// truncated, torn or checksum-failing, the expected crash artifact — ends
// the log without failing it. Records with an unknown schema version or
// unreadable JSON are skipped.
func decodeJournal(b []byte) ([]Record, ReplayStats, error) {
	var stats ReplayStats
	if err := checkJournalHeader(b); err != nil {
		return nil, stats, err
	}
	bodies, end := journalFrames(b)
	if end != len(b) {
		stats.TornTailTruncations = 1
	}
	var recs []Record
	for _, body := range bodies {
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			stats.UnreadableSkips++ // frame intact, content unreadable: skip
			continue
		}
		if rec.V != recordVersion {
			stats.UnknownVersionSkips++ // written by another schema: skip
			continue
		}
		recs = append(recs, rec)
		stats.Records++
	}
	return recs, stats, nil
}

// foldJournal reduces the record stream to each job's and each
// pipeline's latest state.
func foldJournal(recs []Record) ([]*JournalJob, []*JournalPipeline) {
	byID := make(map[string]*JournalJob)
	var order []*JournalJob
	get := func(id string) *JournalJob {
		if jj, ok := byID[id]; ok {
			return jj
		}
		jj := &JournalJob{ID: id}
		byID[id] = jj
		order = append(order, jj)
		return jj
	}
	pipeByID := make(map[string]*JournalPipeline)
	var pipeOrder []*JournalPipeline
	getPipe := func(id string) *JournalPipeline {
		if jp, ok := pipeByID[id]; ok {
			return jp
		}
		jp := &JournalPipeline{ID: id, Stages: make(map[string]json.RawMessage)}
		pipeByID[id] = jp
		pipeOrder = append(pipeOrder, jp)
		return jp
	}
	for _, rec := range recs {
		if rec.Pipeline != "" {
			jp := getPipe(rec.Pipeline)
			switch rec.Type {
			case RecPipelineSubmitted:
				jp.Request = rec.Request
				jp.Submitted = rec.Time
			case RecPipelineStage:
				if rec.Stage != "" {
					jp.Stages[rec.Stage] = rec.Report
				}
			case RecPipelineFinished:
				jp.Finished = true
				jp.FinishedAt = rec.Time
				jp.State = rec.State
				jp.Error = rec.Error
				jp.Status = rec.Report
			}
			continue
		}
		if rec.Job == "" {
			continue
		}
		jj := get(rec.Job)
		switch rec.Type {
		case recSubmitted:
			jj.Request = rec.Request
			jj.CacheKey = rec.CacheKey
			jj.Submitted = rec.Time
		case recStarted:
			if jj.Started.IsZero() {
				jj.Started = rec.Time
			}
			jj.Attempts = rec.Attempt
		case recCheckpointed:
			// The snapshot frame carries its own checksum: a damaged one
			// inside an intact record keeps the previous snapshot.
			if s, err := checkpoint.Decode(rec.Snapshot); err == nil {
				jj.Snapshot = &s
			}
		case recFinished:
			jj.Finished = true
			jj.FinishedAt = rec.Time
			jj.State = State(rec.State)
			jj.Error = rec.Error
			jj.Snapshot = nil
			if len(rec.Report) > 0 {
				var rep core.RunReport
				if json.Unmarshal(rec.Report, &rep) == nil {
					jj.Report = &rep
				}
			}
		}
	}
	return order, pipeOrder
}

// marshalReport serializes a run report for a finished record with the
// trace events stripped: they dominate the encoding and replay needs the
// result, not the flame graph.
func marshalReport(rep *core.RunReport) json.RawMessage {
	if rep == nil {
		return nil
	}
	r := *rep
	r.TraceEvents = nil
	b, err := json.Marshal(&r)
	if err != nil {
		return nil
	}
	return b
}
