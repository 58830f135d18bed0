package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sched"
)

// jobDigest condenses a completed job's result into a canonical hash.
// Failed/cancelled jobs digest to "" — their identity is the state.
func jobDigest(j *sched.Job, checkpointed bool) string {
	if j.State() != sched.StateCompleted {
		return ""
	}
	rep := j.Report()
	if rep == nil {
		return "no-report"
	}
	return reportDigest(rep, checkpointed)
}

// reportDigest hashes a canonicalized report. Volatile fields are
// dropped; with payloadOnly (checkpointed jobs, whose timing depends on
// which round a crash resumed from) only the analysis payload —
// algorithm, platform and the detection/classification results — is
// kept, the part that must be identical however the run got there.
func reportDigest(rep *core.RunReport, payloadOnly bool) string {
	r := *rep
	r.Timeline = ""
	r.TraceEvents = nil
	// nil and empty slices must hash alike: a journal round-trip maps
	// empty to nil.
	if len(r.ProcTimes) == 0 {
		r.ProcTimes = nil
	}
	if len(r.BusyTimes) == 0 {
		r.BusyTimes = nil
	}
	if len(r.FailedRanks) == 0 {
		r.FailedRanks = nil
	}
	if payloadOnly {
		r.WallTime, r.Com, r.Seq, r.Par = 0, 0, 0, 0
		r.ProcTimes, r.BusyTimes = nil, nil
		r.DAll, r.DMinus = 0, 0
		r.Attempts = 0
		r.FailedRanks = nil
		r.RecoveryOverhead = 0
		r.ResumedFromRound = 0
		r.CheckpointSaves = 0
		r.CheckpointBytes = 0
		r.CheckpointOverhead = 0
		// Balance accounting counts chunks granted from the resume round
		// onward, so it too depends on where a crash cut the run.
		r.BalanceChunks = 0
		r.StealEvents = 0
		r.ReassignedLines = 0
		r.EstimatorDrift = 0
	}
	b, err := json.Marshal(&r)
	if err != nil {
		return "marshal-error"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// canonicalStage is the digest-relevant view of one pipeline stage.
type canonicalStage struct {
	Name           string
	Kind           flow.StageKind
	State          flow.StageState
	VirtualSeconds float64
	Synthesis      *flow.Synthesis
}

// pipeDigest condenses a pipeline's terminal status into a canonical
// hash: per-stage states and virtual run times (simulated, hence
// deterministic) plus synthesis output, with cache provenance erased —
// a cache hit must be indistinguishable from a fresh run. The
// pipeline-level VirtualSeconds aggregate is excluded on purpose: it
// omits cached and resumed stages, so it depends on which path a crash
// forced, not on what was computed.
func pipeDigest(status flow.PipelineStatus) string {
	type doc struct {
		State  flow.PipelineState
		Stages []canonicalStage
	}
	d := doc{State: status.State}
	for _, ss := range status.Stages {
		cs := canonicalStage{
			Name:           ss.Name,
			Kind:           ss.Kind,
			State:          ss.State,
			VirtualSeconds: ss.VirtualSeconds,
		}
		if ss.Synthesis != nil {
			synth := *ss.Synthesis
			if len(synth.Timing) > 0 {
				timing := append([]flow.StageTiming(nil), synth.Timing...)
				for i := range timing {
					timing[i].FromCache = false
				}
				synth.Timing = timing
			}
			cs.Synthesis = &synth
		}
		d.Stages = append(d.Stages, cs)
	}
	b, err := json.Marshal(&d)
	if err != nil {
		return "marshal-error"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// settleWitness checks the settle-order invariant from the harness's
// watcher goroutines, at the moment a job or pipeline reports done:
// "done" means counted, listed and (for pipelines) journaled — a waiter
// never runs ahead of the books.
type settleWitness struct {
	dir   string
	sched *sched.Scheduler
	// draining is set before the harness drains the engine: from then on
	// a pipeline that did not complete legitimately has no terminal record.
	draining atomic.Bool
	seen     atomic.Uint64 // watched jobs observed settled so far

	mu       sync.Mutex
	breaches []string
}

// watched pairs a settlement channel with the check to run when it closes.
type watched struct {
	done  <-chan struct{}
	check func()
}

func (w *settleWitness) fail(format string, args ...any) {
	w.mu.Lock()
	w.breaches = append(w.breaches, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

// sorted returns the breaches in a stable order (watchers race).
func (w *settleWitness) sorted() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	sort.Strings(w.breaches)
	return w.breaches
}

// job asserts that the moment j's Done() closes, Stats already counts
// every watched job seen settled (this one included) and Jobs() lists j in
// a final state.
func (w *settleWitness) job(j *sched.Job) watched {
	return watched{done: j.Done(), check: func() {
		seen := w.seen.Add(1)
		st := w.sched.Stats()
		if counted := st.Completed + st.Failed + st.Cancelled; counted < seen {
			w.fail("settle-order: job %s (%s) reported done with %d watched jobs settled but only %d counted",
				j.ID(), j.Spec().Label, seen, counted)
		}
		for _, lj := range w.sched.Jobs() {
			if lj == j && lj.State().Final() {
				return
			}
		}
		w.fail("settle-order: job %s (%s) reported done but Jobs() does not list it as final", j.ID(), j.Spec().Label)
	}}
}

// pipe asserts that the moment p's Done() closes, a replay of the journal
// already shows its terminal record — unless a drain deferred it.
func (w *settleWitness) pipe(p *flow.Pipeline) watched {
	return watched{done: p.Done(), check: func() {
		// Read the flag before the journal: if no drain had begun once Done
		// was observed, the pipeline settled before it and owes a record.
		draining := w.draining.Load()
		if draining && p.State() != flow.PipelineCompleted {
			return
		}
		state, err := sched.ReplayJournalState(w.dir)
		if err != nil || state == nil {
			w.fail("settle-order: pipeline %s reported done but the journal does not replay: %v", p.ID(), err)
			return
		}
		for _, jp := range state.Pipelines {
			if jp.ID == p.ID() && jp.Finished {
				return
			}
		}
		w.fail("settle-order: pipeline %s (%s) reported done before its terminal record was journaled", p.ID(), p.State())
	}}
}

// Verdict is one scenario's check result. String() is deterministic:
// the same seed must yield the same bytes, run after run — that
// determinism is itself asserted by the test suite.
type Verdict struct {
	Seed     uint64
	Scenario string
	Lines    []string
	Failures []string
}

// OK reports whether every invariant held.
func (v *Verdict) OK() bool { return len(v.Failures) == 0 }

func (v *Verdict) String() string {
	var b strings.Builder
	status := "ok"
	if !v.OK() {
		status = fmt.Sprintf("FAILED (%d invariant breaches)", len(v.Failures))
	}
	fmt.Fprintf(&b, "sim seed %d: %s\n", v.Seed, status)
	b.WriteString(v.Scenario)
	for _, l := range v.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, f := range v.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	return b.String()
}

// CheckOptions configures one Check.
type CheckOptions struct {
	// Dir is the working directory ("" uses a temp dir, removed after).
	Dir string
	// Scenes is the shared scene cache; nil creates one per call.
	Scenes *sched.SceneCache
	// Timeout bounds each phase's settle wait.
	Timeout time.Duration
	// Extra, when non-nil, contributes additional failure lines from the
	// crashed run's outcome — the hook the test suite uses to verify
	// that a deliberately broken invariant is caught and shrunk.
	Extra func(*Outcome) []string
}

// Check runs the scenario twice — once with its crash points, once
// crash-free on a fresh journal — and verdicts the invariants:
// terminal-state uniqueness, journal replay fidelity and counter
// balance (asserted inside Run), plus cross-run determinism (the
// crashed-and-resumed run must match the uncrashed baseline label for
// label) and cache transparency (a duplicate submission's digest equals
// its source's).
func Check(scn *Scenario, opts CheckOptions) (*Verdict, error) {
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "sim-*")
		if err != nil {
			return nil, fmt.Errorf("sim: temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	if opts.Scenes == nil {
		opts.Scenes = sched.NewSceneCache()
	}

	actual, err := Run(scn, Options{Dir: filepath.Join(dir, "actual"), Scenes: opts.Scenes, Timeout: opts.Timeout})
	if err != nil {
		return nil, err
	}
	base := scn.clone()
	base.Crashes = nil
	baseline, err := Run(base, Options{Dir: filepath.Join(dir, "baseline"), Scenes: opts.Scenes, Timeout: opts.Timeout})
	if err != nil {
		return nil, err
	}

	v := &Verdict{Seed: scn.Seed, Scenario: scn.String()}
	v.Failures = append(v.Failures, actual.Failures...)
	for _, f := range baseline.Failures {
		v.Failures = append(v.Failures, "baseline: "+f)
	}
	compareRuns(v, scn, actual, baseline)
	checkCacheTransparency(v, scn, actual)
	if opts.Extra != nil {
		v.Failures = append(v.Failures, opts.Extra(actual)...)
	}
	v.Lines = outcomeLines(scn, actual)
	return v, nil
}

// compareRuns asserts crash/resume determinism: every label's terminal
// state and canonical digest must match between the crashed run and the
// uncrashed baseline.
func compareRuns(v *Verdict, scn *Scenario, actual, baseline *Outcome) {
	for _, pl := range scn.Jobs {
		a, b := actual.Jobs[pl.Label], baseline.Jobs[pl.Label]
		if a == nil || b == nil {
			continue // missing instances already reported by the runs
		}
		if a.State != b.State {
			v.Failures = append(v.Failures, fmt.Sprintf(
				"determinism: job %s state %s after crashes, %s without", pl.Label, a.State, b.State))
			continue
		}
		if a.Digest != b.Digest {
			v.Failures = append(v.Failures, fmt.Sprintf(
				"determinism: job %s digest %s after crashes, %s without", pl.Label, a.Digest, b.Digest))
		}
	}
	for _, pl := range scn.Pipelines {
		a, b := actual.Pipes[pl.Label], baseline.Pipes[pl.Label]
		if a == nil || b == nil {
			continue
		}
		if a.State != b.State {
			v.Failures = append(v.Failures, fmt.Sprintf(
				"determinism: pipeline %s state %s after crashes, %s without", pl.Label, a.State, b.State))
			continue
		}
		if a.Digest != b.Digest {
			v.Failures = append(v.Failures, fmt.Sprintf(
				"determinism: pipeline %s digest %s after crashes, %s without", pl.Label, a.Digest, b.Digest))
		}
	}
}

// checkCacheTransparency asserts a duplicated plan resolves to the same
// result as its source, whether or not the cache served it.
func checkCacheTransparency(v *Verdict, scn *Scenario, actual *Outcome) {
	for _, pl := range scn.Jobs {
		if pl.DuplicateOf == "" {
			continue
		}
		dup, src := actual.Jobs[pl.Label], actual.Jobs[pl.DuplicateOf]
		if dup == nil || src == nil {
			continue
		}
		if dup.State != src.State || dup.Digest != src.Digest {
			v.Failures = append(v.Failures, fmt.Sprintf(
				"cache: duplicate %s (%s %s) diverged from source %s (%s %s)",
				pl.Label, dup.State, dup.Digest, pl.DuplicateOf, src.State, src.Digest))
		}
	}
}

// outcomeLines renders one deterministic line per label.
func outcomeLines(scn *Scenario, actual *Outcome) []string {
	var lines []string
	for _, pl := range scn.Jobs {
		jo := actual.Jobs[pl.Label]
		if jo == nil {
			lines = append(lines, fmt.Sprintf("job %s: missing", pl.Label))
			continue
		}
		d := jo.Digest
		if d == "" {
			d = "-"
		}
		lines = append(lines, fmt.Sprintf("job %s: %s digest=%s", pl.Label, jo.State, d))
	}
	for _, pl := range scn.Pipelines {
		po := actual.Pipes[pl.Label]
		if po == nil {
			lines = append(lines, fmt.Sprintf("pipe %s: missing", pl.Label))
			continue
		}
		lines = append(lines, fmt.Sprintf("pipe %s: %s digest=%s", pl.Label, po.State, po.Digest))
	}
	return lines
}
