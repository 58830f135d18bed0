// Package balance implements demand-driven self-scheduling for the
// master/worker phases of the parallel algorithms: instead of computing
// over a static WEA share, every worker asks the master for a chunk of
// lines, computes it, reports the partial result, and immediately gets
// the next chunk — sized by an online per-rank throughput estimator
// (EWMA over observed virtual compute times, seeded from the platform
// cycle-time model). A rank that an injected fault degrades or
// link-slows automatically sheds work to its peers because its reports
// arrive late and its next chunks shrink, while a fast rank keeps
// pulling; the master itself fills idle gaps between reports with its
// own chunks.
//
// Determinism is the design constraint everything here bends around.
// The master never does a receive-any: mpi.Comm.PeekEarliest blocks (in
// host time) until every outstanding worker's report is physically
// present, then picks the one whose virtual transfer completes first,
// ties broken by rank. Grant order is therefore a pure function of the
// virtual clocks — themselves pure functions of the cost model — so a
// balanced run computes byte-identical results and timings on every
// execution, exactly like the static schedule it replaces.
package balance

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/vtime"
)

// Message tags, disjoint from the algorithm protocol tags (1..7) so a
// misrouted message fails loudly.
const (
	tagGrant = 101 + iota
	tagReport
)

// Header sizes (bytes) for the control messages: span coordinates plus
// flags for a grant, span plus timing for a report. The row data and the
// partial payloads are costed separately.
const (
	grantHeaderBytes  = 24
	reportHeaderBytes = 24
)

// grantFlops is the master's per-grant bookkeeping charge (estimator
// update, chunk sizing, frontier advance), mirroring ScatterCube's
// per-span partitioning charge.
const grantFlops = 32

// Policy configures demand-driven balancing for a run. The zero value
// means disabled; DefaultPolicy returns an enabled policy. Chunk sizing
// and the estimator's weight are fixed in package partition. Policy is a
// pure value — it travels on the context and in job specs, never inside
// Params.
type Policy struct {
	// Enabled turns the demand-driven scheduler on.
	Enabled bool
}

// DefaultPolicy returns an enabled policy.
func DefaultPolicy() Policy { return Policy{Enabled: true} }

// Stats is the master-side accounting of one balanced run.
type Stats struct {
	// Phases and Chunks count completed phases and granted chunks.
	Phases, Chunks int
	// StealEvents counts grants whose span reached outside the grantee's
	// static WEA share; ReassignedLines totals the lines those grants
	// moved. Both are 0 when the dynamic schedule happens to reproduce
	// the static one.
	StealEvents, ReassignedLines int
	// AssignedLines is the total line count each rank computed.
	AssignedLines []int
	// GrantBytes totals the row data shipped by grants (after data
	// scaling), a measure of the protocol's extra communication.
	GrantBytes int64
	// EstimatorDrift is the mean relative error between predicted and
	// observed chunk times.
	EstimatorDrift float64
}

// Balancer carries the cross-phase state of one balanced run: the
// throughput estimator, the static reference plan (for steal
// accounting), the data-affinity map of rows already shipped, and the
// stats. It is created once per run attempt at the master and shared
// with the rank goroutines, but only rank 0's goroutine ever touches the
// mutable state — workers exchange messages with the master and nothing
// else.
type Balancer struct {
	static []partition.Span
	scene  *cube.Cube
	est    *partition.Estimator
	held   [][]bool // [rank][line]: rows already shipped to that rank
	stats  Stats
}

// New builds a balancer for one run attempt: net is the (possibly
// degraded-recovery-reduced) platform, static the WEA plan the variant
// would have used — the baseline steals are measured against — and f the
// master's full scene.
func New(net *platform.Network, static []partition.Span, f *cube.Cube) *Balancer {
	held := make([][]bool, net.Size())
	for i := range held {
		held[i] = make([]bool, f.Lines)
	}
	return &Balancer{
		static: append([]partition.Span(nil), static...),
		scene:  f,
		est:    partition.NewEstimator(net.CycleTimes()),
		held:   held,
		stats:  Stats{AssignedLines: make([]int, net.Size())},
	}
}

// Static returns the static reference plan the balancer measures steals
// against. Partition-sensitive phases use it as their fixed task list so
// their numerics run at exactly the static boundaries.
func (b *Balancer) Static() []partition.Span {
	return append([]partition.Span(nil), b.static...)
}

// Stats returns a copy of the accumulated accounting.
func (b *Balancer) Stats() Stats {
	s := b.stats
	s.AssignedLines = append([]int(nil), b.stats.AssignedLines...)
	s.EstimatorDrift = b.est.Drift()
	return s
}

// Phase describes one demand-driven phase over the scene's lines.
type Phase struct {
	// Lines is the total line count the phase covers.
	Lines int
	// Halo is how many extra rows each chunk's view extends on each side
	// (windowed kernels).
	Halo int
	// FlopsPerLine is the cost-model estimate of one line's compute, in
	// unscaled model flops (RunPhase applies the world's compute scale);
	// it seeds chunk sizing before any observation lands.
	FlopsPerLine float64
	// Tasks, when non-nil, replaces guided chunking with a fixed task
	// list handed out demand-driven in order — used by phases whose
	// numerics are partition-sensitive (PCT statistics, MORPH candidate
	// selection), which must run at exactly the static plan's boundaries
	// to stay byte-identical with the unbalanced run.
	Tasks []partition.Span
}

// Work computes one chunk: view holds rows [halo.Lo, halo.Hi) of the
// scene, owned is the chunk the result must cover. It returns the
// partial result and its serialized size for the report transfer. Work
// runs on the granted rank's goroutine and must charge its compute
// through the rank's Comm as usual.
type Work func(view *cube.Cube, owned, halo partition.Span) (payload any, bytes int)

// Partial is one chunk's result at the master.
type Partial struct {
	Span    partition.Span
	Rank    int
	Payload any
}

// grant is the master-to-worker chunk assignment.
type grant struct {
	done        bool
	owned, halo partition.Span
	view        *cube.Cube
}

// report is the worker-to-master chunk result.
type report struct {
	payload any
	bytes   int
	busy    float64 // virtual busy seconds spent in Work
}

// RunPhase executes one demand-driven phase. It is collective: every
// rank of the communicator must call it with the same phase shape. At
// the master it returns the partial results sorted by span (ascending
// Lo) after validating that they tile the phase exactly; workers return
// nil.
func RunPhase(c *mpi.Comm, b *Balancer, ph Phase, work Work) []Partial {
	if !c.Root() {
		workerLoop(c, work)
		return nil
	}
	return b.masterLoop(c, ph, work)
}

// workerLoop serves grants until the master says done.
func workerLoop(c *mpi.Comm, work Work) {
	for {
		g := mpi.RecvAs[grant](c, 0, tagGrant)
		if g.done {
			return
		}
		start := c.Clock().Busy()
		payload, bytes := work(g.view, g.owned, g.halo)
		busy := c.Clock().Busy() - start
		c.Send(0, tagReport, report{payload: payload, bytes: bytes, busy: busy}, bytes+reportHeaderBytes)
	}
}

// chunkSource unifies the two grant modes behind "how big is the next
// chunk for this rank" / "cut it".
type chunkSource struct {
	plan      *partition.DynamicPlan // guided mode
	tasks     []taskItem             // task mode (empty tasks pre-filtered)
	taken     []bool
	taskLines int // total lines across all tasks
	est       *partition.Estimator
	fpl       float64
}

// taskItem is one fixed task with the rank whose static share it came
// from: dispatch prefers the owner, so a WEA span sized for a fast rank
// is not handed to a slow one when the owner is available.
type taskItem struct {
	span  partition.Span
	owner int
}

func newChunkSource(b *Balancer, ph Phase, fpl float64) *chunkSource {
	s := &chunkSource{est: b.est, fpl: fpl}
	if ph.Tasks != nil {
		for i, t := range ph.Tasks {
			if t.Len() > 0 {
				s.tasks = append(s.tasks, taskItem{span: t, owner: i})
				s.taskLines += t.Len()
			}
		}
		s.taken = make([]bool, len(s.tasks))
		return s
	}
	s.plan = partition.NewDynamicPlan(ph.Lines)
	return s
}

func (s *chunkSource) empty() bool {
	if s.plan != nil {
		return s.plan.Remaining() == 0
	}
	for _, t := range s.taken {
		if !t {
			return false
		}
	}
	return true
}

// nextFor returns the index of the task rank would be granted: the
// remaining task whose length best matches rank's estimated fair share
// of the whole phase (ties prefer the rank's own span, then the lowest
// index). While observed throughput tracks the model this reproduces
// the owner assignment exactly — each WEA span IS its rank's fair share
// — but once a rank drifts slow its share shrinks and it picks up the
// smallest remaining span, leaving its own to a faster peer. Returns -1
// when exhausted.
func (s *chunkSource) nextFor(rank int) int {
	want := -1.0
	if total := s.totalRate(); total > 0 {
		want = float64(s.taskLines) * s.est.Rate(rank, s.fpl) / total
	}
	best, bestDist := -1, math.Inf(1)
	for i, item := range s.tasks {
		if s.taken[i] {
			continue
		}
		if want < 0 { // estimator dead: fall back to owner-else-first order
			if item.owner == rank {
				return i
			}
			if best < 0 {
				best = i
			}
			continue
		}
		d := math.Abs(float64(item.span.Len()) - want)
		if d < bestDist || (d == bestDist && item.owner == rank) {
			best, bestDist = i, d
		}
	}
	return best
}

// size returns the line count the next grant to rank would carry (0 when
// exhausted).
func (s *chunkSource) size(rank int) int {
	if s.plan != nil {
		return s.plan.ChunkSize(s.est.Rate(rank, s.fpl), s.totalRate())
	}
	if i := s.nextFor(rank); i >= 0 {
		return s.tasks[i].span.Len()
	}
	return 0
}

// take cuts the next chunk for rank. Call only when !empty().
func (s *chunkSource) take(rank int) partition.Span {
	if s.plan != nil {
		return s.plan.Take(s.size(rank))
	}
	i := s.nextFor(rank)
	s.taken[i] = true
	return s.tasks[i].span
}

func (s *chunkSource) totalRate() float64 {
	var sum float64
	for r := 0; r < s.est.Ranks(); r++ {
		sum += s.est.Rate(r, s.fpl)
	}
	return sum
}

// masterLoop drives one phase from rank 0: initial grants in rank order,
// then an event loop that consumes whichever outstanding report
// completes first in virtual time, updates the estimator, and re-grants
// — filling its own idle gaps with self-computed chunks whose predicted
// cost fits before the next report lands.
func (b *Balancer) masterLoop(c *mpi.Comm, ph Phase, work Work) []Partial {
	b.stats.Phases++
	fpl := ph.FlopsPerLine * c.ComputeScale()
	if !(fpl > 0) {
		fpl = 1
	}
	src := newChunkSource(b, ph, fpl)
	var partials []Partial
	outstanding := make(map[int]grantRecord)

	// Initial grants in rank order: the deterministic opening move.
	for r := 1; r < c.Size(); r++ {
		b.grantTo(c, src, ph, r, outstanding)
	}
	// The master opens with one chunk of its own, sized to its estimated
	// share. Without this rank 0 spends the opening round purely
	// coordinating and its timeline sags far below the workers'.
	if !src.empty() {
		b.selfChunk(c, src, ph, fpl, work, &partials)
	}

	for len(outstanding) > 0 {
		srcs := make([]int, 0, len(outstanding))
		for r := range outstanding {
			srcs = append(srcs, r)
		}
		sort.Ints(srcs)
		from, ready, _ := c.PeekEarliest(srcs, tagReport)
		// Until that worker's report is even ready, the master would sit
		// idle: compute own chunks that provably fit in the gap.
		b.selfFill(c, src, ph, fpl, ready, work, &partials)

		rec := outstanding[from]
		delete(outstanding, from)
		rep := mpi.RecvAs[report](c, from, tagReport)
		b.est.Observe(from, rec.owned.Len(), fpl, rep.busy)
		partials = append(partials, Partial{Span: rec.owned, Rank: from, Payload: rep.payload})
		c.ComputeFixed(grantFlops, vtime.Seq)
		b.grantTo(c, src, ph, from, outstanding)
	}
	// No workers left (or none to begin with): whatever remains is the
	// master's.
	b.selfDrain(c, src, ph, fpl, work, &partials)

	sort.Slice(partials, func(i, j int) bool { return partials[i].Span.Lo < partials[j].Span.Lo })
	spans := make([]partition.Span, len(partials))
	for i, p := range partials {
		spans[i] = p.Span
	}
	if err := partition.Validate(spans, ph.Lines); err != nil {
		panic(fmt.Sprintf("balance: phase coverage broken: %v", err))
	}
	return partials
}

type grantRecord struct {
	owned partition.Span
}

// grantTo sends rank its next chunk, or the done marker when the source
// is exhausted.
func (b *Balancer) grantTo(c *mpi.Comm, src *chunkSource, ph Phase, rank int, outstanding map[int]grantRecord) {
	if src.empty() {
		c.Send(rank, tagGrant, grant{done: true}, grantHeaderBytes)
		return
	}
	owned := src.take(rank)
	halo := owned.Grow(ph.Halo, ph.Lines)
	view, err := b.scene.Rows(halo.Lo, halo.Hi)
	if err != nil {
		panic(fmt.Sprintf("balance: grant view [%d,%d): %v", halo.Lo, halo.Hi, err))
	}
	bytes := grantHeaderBytes + b.shipBytes(c, rank, halo)
	c.Send(rank, tagGrant, grant{owned: owned, halo: halo, view: view}, bytes)
	b.account(rank, owned)
	outstanding[rank] = grantRecord{owned: owned}
}

// selfFill computes master chunks while the earliest outstanding report
// is still being produced (deadline = its ready time). Only chunks whose
// predicted cost fits entirely before the deadline are taken, so the
// rule stays a pure function of virtual time.
func (b *Balancer) selfFill(c *mpi.Comm, src *chunkSource, ph Phase, fpl, deadline float64, work Work, partials *[]Partial) {
	for !src.empty() {
		n := src.size(0)
		if c.Clock().Now()+b.est.Predict(0, n, fpl) > deadline {
			return
		}
		b.selfChunk(c, src, ph, fpl, work, partials)
	}
}

// selfDrain computes everything still unassigned on the master.
func (b *Balancer) selfDrain(c *mpi.Comm, src *chunkSource, ph Phase, fpl float64, work Work, partials *[]Partial) {
	for !src.empty() {
		b.selfChunk(c, src, ph, fpl, work, partials)
	}
}

func (b *Balancer) selfChunk(c *mpi.Comm, src *chunkSource, ph Phase, fpl float64, work Work, partials *[]Partial) {
	owned := src.take(0)
	halo := owned.Grow(ph.Halo, ph.Lines)
	view, err := b.scene.Rows(halo.Lo, halo.Hi)
	if err != nil {
		panic(fmt.Sprintf("balance: self view [%d,%d): %v", halo.Lo, halo.Hi, err))
	}
	c.ComputeFixed(grantFlops, vtime.Seq)
	start := c.Clock().Busy()
	payload, _ := work(view, owned, halo)
	busy := c.Clock().Busy() - start
	b.est.Observe(0, owned.Len(), fpl, busy)
	b.account(0, owned)
	*partials = append(*partials, Partial{Span: owned, Rank: 0, Payload: payload})
}

// account books a granted chunk: assignment totals and steal accounting
// against the static reference plan.
func (b *Balancer) account(rank int, owned partition.Span) {
	b.stats.Chunks++
	b.stats.AssignedLines[rank] += owned.Len()
	ref := b.static[rank]
	stolen := owned.NotIn(ref)
	if stolen > 0 {
		b.stats.StealEvents++
		b.stats.ReassignedLines += stolen
	}
}

// shipBytes returns the scaled byte cost of the rows in halo not yet
// held by rank, marking them held — the data-affinity model: re-granting
// a row a rank already has is free, like the paper's persistent local
// partitions.
func (b *Balancer) shipBytes(c *mpi.Comm, rank int, halo partition.Span) int {
	fresh := 0
	for l := halo.Lo; l < halo.Hi; l++ {
		if !b.held[rank][l] {
			fresh++
			b.held[rank][l] = true
		}
	}
	rowBytes := float64(b.scene.Samples*b.scene.Bands) * 4 * c.DataScale()
	bytes := float64(fresh) * rowBytes
	b.stats.GrantBytes += int64(bytes)
	return int(bytes)
}
