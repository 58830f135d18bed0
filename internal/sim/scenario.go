// Package sim is a deterministic whole-stack simulation harness: a
// uint64 seed expands into a randomized workload — plain jobs and flow
// pipelines over small scenes, fault plans, checkpoint opt-in, retry
// budgets and injected crash/restart points that tear the journal at a
// random byte — which the runner drives through the real scheduler,
// flow engine and journal, restarting the stack after every crash. A
// checker then asserts stack-wide invariants (terminal states, journal
// replay fidelity, crash/resume determinism against an uncrashed
// baseline, cache transparency, counter balance, non-negative virtual
// time) and, on failure, a shrinking pass minimizes the scenario and
// prints a one-line repro.
//
// Everything derives from the seed via splitmix64 (the same discipline
// as internal/par and internal/scene), so the same seed reproduces the
// identical scenario and verdict byte for byte on any machine.
package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
)

// rng is a splitmix64 stream, the repo's standard seeding discipline.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// rangeInt returns a uniform int in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// chance flips a biased coin.
func (r *rng) chance(p float64) bool { return r.float() < p }

// pick returns a uniform element of list.
func pick[T any](r *rng, list []T) T { return list[r.intn(len(list))] }

// TriggerKind selects the event that fires a crash point.
type TriggerKind string

const (
	// TrigJobStart fires when the named job transitions to running.
	TrigJobStart TriggerKind = "job-start"
	// TrigCheckpoint fires when the named job saves a snapshot at or
	// past the configured round.
	TrigCheckpoint TriggerKind = "checkpoint"
	// TrigStageDone fires when the named pipeline stage settles.
	TrigStageDone TriggerKind = "stage-done"
	// TrigSettled fires when the configured number of top-level
	// submissions (jobs + pipelines) have reached a terminal state.
	TrigSettled TriggerKind = "settled"
)

// TearMode selects how the journal is damaged after a crash.
type TearMode string

const (
	// TearNone leaves the journal intact (a clean kill).
	TearNone TearMode = "none"
	// TearTruncate cuts the file at the tear offset, the classic torn
	// write of a crash mid-append.
	TearTruncate TearMode = "truncate"
	// TearCorrupt flips one byte at the tear offset, a bad sector. The
	// journal reader treats everything from the damaged frame on as
	// lost, so this too is a suffix erasure.
	TearCorrupt TearMode = "corrupt"
)

// CrashPoint is one injected process crash: when the trigger fires, the
// runner drains the stack, optionally tears the journal, and boots a
// fresh scheduler + engine from a replay — the paper's node-failure
// story applied to the orchestrator itself.
type CrashPoint struct {
	Kind TriggerKind
	// Job is the target label for TrigJobStart / TrigCheckpoint.
	Job string
	// Round is the minimum checkpoint round for TrigCheckpoint.
	Round int
	// Pipeline and Stage target TrigStageDone.
	Pipeline string
	Stage    string
	// Settle is the settled-submission count for TrigSettled.
	Settle int
	// Tear and TearFrac damage the journal after the drain: the tear
	// offset is header + TearFrac * (size - header). The 8-byte header
	// is never damaged — a bad header is a declared fatal error, not a
	// crash artifact.
	Tear     TearMode
	TearFrac float64
}

// JobPlan is one plain scheduler job in a scenario.
type JobPlan struct {
	Label     string
	Scene     scene.Config
	Mode      sched.Mode
	Algorithm core.Algorithm
	Variant   core.Variant
	// Network names one of the four UMD platforms ("" for sequential).
	Network   string
	CycleTime float64
	Targets   int
	WorkScale float64
	Priority  sched.Priority
	// Checkpoint opts into round-boundary snapshots (ModeRun only; the
	// Adaptive variant ignores checkpointers).
	Checkpoint bool
	// Balance schedules the job's parallel phases demand-driven (ModeRun,
	// not Adaptive). Outputs stay identical to the static schedule, so every
	// determinism invariant applies unchanged; only the timings and the
	// report's balance accounting differ.
	Balance bool
	NoCache bool
	// MaxAttempts is the scheduler retry budget (0 means 1).
	MaxAttempts int
	// Recovery enables degraded-mode recovery (ModeRun, not Adaptive).
	Recovery bool
	Faults   *fault.Plan
	// DuplicateOf names an earlier plan this one clones (same work,
	// different label) to exercise the result cache; the checker
	// asserts the duplicate's digest matches its source's.
	DuplicateOf string
}

// StagePlan is one analyze stage of a pipeline plan.
type StagePlan struct {
	Algorithm   core.Algorithm
	Variant     core.Variant
	Network     string
	Targets     int
	MaxAttempts int
	Faults      *fault.Plan
}

// PipelinePlan is one flow pipeline in a scenario: a scene stage, one
// or more analyze stages fanned out over it, and optionally a
// synthesize stage folding them together.
type PipelinePlan struct {
	Label      string
	Scene      scene.Config
	Analyze    []StagePlan
	Synthesize bool
}

// StormPlan turns a scenario into an overload exercise: the runner
// injects a submit storm against the bounded queue each phase and
// asserts the admission invariants — queue-full rejections and expiries
// balance against the scheduler's counters, and expired jobs never
// dispatch.
type StormPlan struct {
	// Jobs is the number of burst submissions injected per phase.
	Jobs int
	// Doomed is how many storm jobs carry a deadline so short it usually
	// passes while they sit in queue — the lazy-expiry invariant's food.
	Doomed int
}

// Scenario is one fully expanded workload. It is pure data: FromSeed
// with the same seed always returns the identical value.
type Scenario struct {
	Seed         uint64
	Workers      int
	QueueDepth   int
	CacheEntries int
	Jobs         []JobPlan
	Pipelines    []PipelinePlan
	Crashes      []CrashPoint
	// Storm, when non-nil, layers the submit-storm exercise over the
	// workload. Storm scenarios carry no pipelines: the flow engine
	// submits stage jobs internally, outside the harness's admission
	// accounting, which would unbalance the rejection counters.
	Storm *StormPlan
}

// networkNames are the four UMD platform menus of the paper.
var networkNames = []string{"fully-het", "fully-homo", "part-het", "part-homo"}

// networkFor maps a scenario network name to its platform (nil for a
// name outside networkNames).
func networkFor(name string) *platform.Network {
	net, _ := platform.ByName(name, 0)
	return net
}

// umdRanks is the processor count of every UMD platform; crash ranks
// are drawn from [1, umdRanks).
const umdRanks = 16

var algorithms = []core.Algorithm{core.ATDCA, core.UFCLS, core.PCT, core.MORPH}

// randScene draws a small scene from a fixed menu, so a whole soak run
// touches only a few dozen distinct cubes and the process-wide scene
// cache keeps generation cost out of the loop.
func randScene(r *rng) scene.Config {
	return scene.Config{
		Lines:   pick(r, []int{24, 32, 40}),
		Samples: pick(r, []int{16, 24}),
		Bands:   pick(r, []int{8, 12, 16}),
		Seed:    int64(1 + r.intn(4)),
	}
}

// crashAt draws a virtual-time instant, log-uniform across [1ms, 2s] of
// simulated time so both early and late phases of a run get hit.
func crashAt(r *rng) float64 {
	return 0.001 * math.Pow(2000, r.float())
}

// transientCrash pins a worker crash to attempt 1: the retry is spared,
// the paper's transient-failure model.
func transientCrash(r *rng) *fault.Plan {
	return &fault.Plan{Crashes: []fault.Crash{{
		Rank:    1 + r.intn(umdRanks-1),
		At:      crashAt(r),
		Attempt: 1,
	}}}
}

// FromSeed expands a seed into a scenario. The generation rules keep
// every scenario deterministic end to end: faults only on parallel
// plans (sequential runs have one rank, nothing to kill), permanent
// crashes only without recovery disabled paths that cannot terminate,
// and transient crashes pinned to attempt 1 with a retry budget that
// covers them.
func FromSeed(seed uint64) *Scenario {
	r := newRNG(seed)
	s := &Scenario{
		Seed:       seed,
		Workers:    r.rangeInt(1, 3),
		QueueDepth: r.rangeInt(8, 31),
	}
	if r.chance(0.15) {
		s.CacheEntries = -1 // cache disabled: hits must not be load-bearing
	}

	nJobs := r.rangeInt(3, 7)
	for i := 0; i < nJobs; i++ {
		s.Jobs = append(s.Jobs, randJob(r, fmt.Sprintf("j%d", i)))
	}
	// Clone an earlier cacheable plan under a new label so the checker
	// can assert cache transparency (hits never change results).
	if r.chance(0.6) {
		if src := pickCacheable(r, s.Jobs); src >= 0 {
			dup := s.Jobs[src]
			dup.Label = fmt.Sprintf("j%d", nJobs)
			dup.DuplicateOf = s.Jobs[src].Label
			s.Jobs = append(s.Jobs, dup)
		}
	}

	// Roughly a quarter of scenarios run a per-phase submit storm with
	// doomed deadlines. The draw happens before the pipeline draw because
	// storm scenarios exclude pipelines.
	if r.chance(0.25) {
		s.Storm = &StormPlan{
			Jobs:   r.rangeInt(6, 12),
			Doomed: r.rangeInt(1, 3),
		}
	}

	if s.Storm == nil {
		nPipes := r.intn(3)
		for i := 0; i < nPipes; i++ {
			s.Pipelines = append(s.Pipelines, randPipeline(r, fmt.Sprintf("p%d", i)))
		}
	}

	nCrashes := r.intn(3)
	for i := 0; i < nCrashes; i++ {
		s.Crashes = append(s.Crashes, randCrash(r, s))
	}
	return s
}

// pickCacheable returns the index of a random plan that exercises the
// result cache (no faults, no checkpointing, cache not bypassed), or -1.
func pickCacheable(r *rng, jobs []JobPlan) int {
	var idx []int
	for i, j := range jobs {
		if j.Faults == nil && !j.Checkpoint && !j.NoCache {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return pick(r, idx)
}

func randJob(r *rng, label string) JobPlan {
	p := JobPlan{
		Label:   label,
		Scene:   randScene(r),
		Targets: r.rangeInt(4, 8),
	}
	// Each seed keeps its stream: an adaptive plan still draws (and
	// ignores) the Hetero/Homo coin and skips the static runs' draws.
	adaptive := false
	switch {
	case r.chance(0.12):
		p.Mode = sched.ModeSequential
		p.Algorithm = pick(r, algorithms)
	case r.chance(0.14):
		adaptive = true
		p.Mode, p.Algorithm = sched.ModeRun, core.ATDCA
		p.Network = pick(r, networkNames)
	default:
		p.Mode = sched.ModeRun
		p.Algorithm = pick(r, algorithms)
		p.Network = pick(r, networkNames)
	}
	if p.Mode != sched.ModeSequential {
		p.Variant = core.Hetero
		if r.chance(0.3) {
			p.Variant = core.Homo
		}
		if adaptive {
			p.Variant = core.Adaptive
		}
	}
	if r.chance(0.25) {
		p.WorkScale = 1 + r.float()*4
	}
	if r.chance(0.3) {
		p.Priority = sched.Interactive
	}
	if r.chance(0.15) {
		p.NoCache = true
	}
	static := p.Mode == sched.ModeRun && !adaptive
	if static && r.chance(0.35) {
		p.Checkpoint = true
	}
	if static && r.chance(0.3) {
		p.Balance = true
	}

	switch {
	case static:
		if r.chance(0.45) {
			roll := r.float()
			switch {
			case roll < 0.4:
				p.Faults = transientCrash(r)
				p.MaxAttempts = r.rangeInt(2, 3)
			case roll < 0.6:
				// Permanent crash: fails every attempt — unless
				// recovery excludes the dead rank and completes on the
				// survivors. Both outcomes are deterministic.
				p.Faults = &fault.Plan{Crashes: []fault.Crash{{
					Rank:    1 + r.intn(umdRanks-1),
					At:      crashAt(r),
					Attempt: -1,
				}}}
				p.Recovery = r.chance(0.5)
				// Checkpoint + permanent crash cannot promise cross-crash
				// determinism. A restart resumes the attempt from its
				// last round with the virtual clock back at zero, so the
				// shortened remainder can finish before the crash instant
				// ever arrives — completing a job the baseline fails.
				// With recovery it is subtler but just as broken: the
				// recovery rerun splices rounds computed on different
				// partitions at a different boundary than the baseline,
				// and the detectors' float reductions are
				// partition-sensitive. Transient crashes (pinned to
				// attempt 1, retried on the same full network) stay
				// deterministic and keep checkpointing covered.
				p.Checkpoint = false
			default:
				// Non-fatal degradations: slower, never dead.
				plan := &fault.Plan{}
				if r.chance(0.7) {
					rank := 1 + r.intn(umdRanks-1)
					from := crashAt(r)
					plan.Degrades = append(plan.Degrades, fault.Degrade{
						Rank: rank, From: from, To: from + r.float(),
						Factor: 1.5 + r.float()*3,
					})
				}
				if r.chance(0.5) {
					from := crashAt(r)
					plan.LinkSlows = append(plan.LinkSlows, fault.LinkSlow{
						Src: 0, Dst: 1 + r.intn(umdRanks-1),
						From: from, To: from + r.float(),
						Factor: 2 + r.float()*4,
					})
				}
				if len(plan.Degrades) == 0 && len(plan.LinkSlows) == 0 {
					plan.Degrades = append(plan.Degrades, fault.Degrade{
						Rank: 1, From: 0, To: 1, Factor: 2,
					})
				}
				p.Faults = plan
			}
		}
	case adaptive:
		if r.chance(0.25) {
			p.Faults = transientCrash(r)
			p.MaxAttempts = r.rangeInt(2, 3)
		}
	}
	return p
}

func randPipeline(r *rng, label string) PipelinePlan {
	p := PipelinePlan{
		Label:      label,
		Scene:      randScene(r),
		Synthesize: r.chance(0.7),
	}
	n := r.rangeInt(1, 3)
	for i := 0; i < n; i++ {
		st := StagePlan{
			Algorithm: pick(r, algorithms),
			Variant:   core.Hetero,
			Network:   pick(r, networkNames),
			Targets:   r.rangeInt(4, 8),
		}
		if r.chance(0.3) {
			st.Variant = core.Homo
		}
		if r.chance(0.2) {
			st.Faults = transientCrash(r)
			st.MaxAttempts = 2
		} else if r.chance(0.15) {
			from := crashAt(r)
			st.Faults = &fault.Plan{Degrades: []fault.Degrade{{
				Rank: 1 + r.intn(umdRanks-1),
				From: from, To: from + r.float(),
				Factor: 1.5 + r.float()*2,
			}}}
		}
		p.Analyze = append(p.Analyze, st)
	}
	return p
}

// stageNames returns the pipeline's stage names in spec order.
func (p *PipelinePlan) stageNames() []string {
	names := []string{"scene"}
	for i := range p.Analyze {
		names = append(names, fmt.Sprintf("a%d", i))
	}
	if p.Synthesize {
		names = append(names, "synth")
	}
	return names
}

func randCrash(r *rng, s *Scenario) CrashPoint {
	type cand struct {
		kind   TriggerKind
		weight int
	}
	cands := []cand{{TrigSettled, 1}}
	if len(s.Jobs) > 0 {
		cands = append(cands, cand{TrigJobStart, 2})
	}
	var ckpt []string
	for _, j := range s.Jobs {
		if j.Checkpoint {
			ckpt = append(ckpt, j.Label)
		}
	}
	if len(ckpt) > 0 {
		cands = append(cands, cand{TrigCheckpoint, 2})
	}
	if len(s.Pipelines) > 0 {
		cands = append(cands, cand{TrigStageDone, 2})
	}
	total := 0
	for _, c := range cands {
		total += c.weight
	}
	roll := r.intn(total)
	var kind TriggerKind
	for _, c := range cands {
		if roll < c.weight {
			kind = c.kind
			break
		}
		roll -= c.weight
	}

	cp := CrashPoint{Kind: kind}
	switch kind {
	case TrigJobStart:
		cp.Job = pick(r, s.Jobs).Label
	case TrigCheckpoint:
		cp.Job = pick(r, ckpt)
		cp.Round = 1 + r.intn(2)
	case TrigStageDone:
		pp := pick(r, s.Pipelines)
		cp.Pipeline = pp.Label
		cp.Stage = pick(r, pp.stageNames())
	case TrigSettled:
		cp.Settle = 1 + r.intn(len(s.Jobs)+len(s.Pipelines))
	}
	switch r.intn(3) {
	case 1:
		cp.Tear = TearTruncate
		cp.TearFrac = r.float()
	case 2:
		cp.Tear = TearCorrupt
		cp.TearFrac = r.float()
	default:
		cp.Tear = TearNone
	}
	return cp
}

// jobPlan returns the plan with the given label.
func (s *Scenario) jobPlan(label string) (JobPlan, bool) {
	for _, j := range s.Jobs {
		if j.Label == label {
			return j, true
		}
	}
	return JobPlan{}, false
}

// pipePlan returns the pipeline plan with the given label.
func (s *Scenario) pipePlan(label string) (PipelinePlan, bool) {
	for _, p := range s.Pipelines {
		if p.Label == label {
			return p, true
		}
	}
	return PipelinePlan{}, false
}

// clone deep-copies the scenario's slices (fault plans are shared; they
// are immutable once built).
func (s *Scenario) clone() *Scenario {
	c := *s
	c.Jobs = append([]JobPlan(nil), s.Jobs...)
	c.Pipelines = make([]PipelinePlan, len(s.Pipelines))
	for i, p := range s.Pipelines {
		p.Analyze = append([]StagePlan(nil), p.Analyze...)
		c.Pipelines[i] = p
	}
	c.Crashes = append([]CrashPoint(nil), s.Crashes...)
	if s.Storm != nil {
		st := *s.Storm
		c.Storm = &st
	}
	return &c
}

func faultString(p *fault.Plan) string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, c := range p.Crashes {
		kind := "transient"
		if c.Attempt < 0 {
			kind = "permanent"
		}
		parts = append(parts, fmt.Sprintf("%s-crash(rank=%d at=%.4f)", kind, c.Rank, c.At))
	}
	for _, d := range p.Degrades {
		parts = append(parts, fmt.Sprintf("degrade(rank=%d ×%.2f)", d.Rank, d.Factor))
	}
	for _, l := range p.LinkSlows {
		parts = append(parts, fmt.Sprintf("linkslow(%d-%d ×%.2f)", l.Src, l.Dst, l.Factor))
	}
	return strings.Join(parts, "+")
}

// String renders the scenario grammar, one line per element. The output
// is deterministic and is part of the verdict byte-compare contract.
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario(seed=%d workers=%d queue=%d cache=%d)\n",
		s.Seed, s.Workers, s.QueueDepth, s.CacheEntries)
	if st := s.Storm; st != nil {
		fmt.Fprintf(&b, "  storm: jobs=%d doomed=%d\n", st.Jobs, st.Doomed)
	}
	for _, j := range s.Jobs {
		fmt.Fprintf(&b, "  job %s: %s", j.Label, j.Mode)
		if j.Algorithm != "" {
			fmt.Fprintf(&b, "/%s", j.Algorithm)
		}
		if j.Variant != "" {
			fmt.Fprintf(&b, "/%s", j.Variant)
		}
		if j.Network != "" {
			fmt.Fprintf(&b, " net=%s", j.Network)
		}
		fmt.Fprintf(&b, " scene=%dx%dx%d/s%d targets=%d",
			j.Scene.Lines, j.Scene.Samples, j.Scene.Bands, j.Scene.Seed, j.Targets)
		if j.WorkScale > 0 {
			fmt.Fprintf(&b, " work=%.2f", j.WorkScale)
		}
		if j.Priority == sched.Interactive {
			b.WriteString(" interactive")
		}
		if j.Checkpoint {
			b.WriteString(" checkpoint")
		}
		if j.Balance {
			b.WriteString(" balance")
		}
		if j.NoCache {
			b.WriteString(" nocache")
		}
		if j.MaxAttempts > 0 {
			fmt.Fprintf(&b, " attempts=%d", j.MaxAttempts)
		}
		if j.Recovery {
			b.WriteString(" recovery")
		}
		if f := faultString(j.Faults); f != "" {
			fmt.Fprintf(&b, " faults=%s", f)
		}
		if j.DuplicateOf != "" {
			fmt.Fprintf(&b, " duplicate-of=%s", j.DuplicateOf)
		}
		b.WriteString("\n")
	}
	for _, p := range s.Pipelines {
		fmt.Fprintf(&b, "  pipe %s: scene=%dx%dx%d/s%d stages=[",
			p.Label, p.Scene.Lines, p.Scene.Samples, p.Scene.Bands, p.Scene.Seed)
		for i, st := range p.Analyze {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s/%s net=%s targets=%d", st.Algorithm, st.Variant, st.Network, st.Targets)
			if f := faultString(st.Faults); f != "" {
				fmt.Fprintf(&b, " faults=%s", f)
			}
		}
		b.WriteString("]")
		if p.Synthesize {
			b.WriteString(" synth")
		}
		b.WriteString("\n")
	}
	for i, c := range s.Crashes {
		fmt.Fprintf(&b, "  crash %d: %s", i, c.Kind)
		switch c.Kind {
		case TrigJobStart:
			fmt.Fprintf(&b, "(%s)", c.Job)
		case TrigCheckpoint:
			fmt.Fprintf(&b, "(%s round>=%d)", c.Job, c.Round)
		case TrigStageDone:
			fmt.Fprintf(&b, "(%s/%s)", c.Pipeline, c.Stage)
		case TrigSettled:
			fmt.Fprintf(&b, "(n=%d)", c.Settle)
		}
		if c.Tear != TearNone {
			fmt.Fprintf(&b, " tear=%s@%.3f", c.Tear, c.TearFrac)
		}
		b.WriteString("\n")
	}
	return b.String()
}
