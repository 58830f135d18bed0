package algo

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/vtime"
)

// This file holds the one master/worker round structure all parallel
// algorithms share. An algorithm is a sequence of phases — per-span work
// over the scene's lines whose partial results the master folds in span
// order — and a schedule decides how the lines of a phase reach the
// processors. The algorithms never ask which schedule they run under,
// except PCT at the two places the paper's static protocol is a different
// message sequence.

// phase describes one parallel phase to the schedule running it.
type phase struct {
	// tag is the gather tag and idleBytes the size of the message a rank
	// that owns no lines still sends, under the static and adaptive
	// schedules (fixed-size partials travel even when empty).
	tag, idleBytes int
	// halo gives the work its span's overlap border (MORPH's windowed
	// AMEE iterations); without it the work sees exactly its own lines.
	halo bool
	// pinned makes the balanced schedule hand out the static spans whole,
	// demand-driven, instead of guided chunks: partition-sensitive
	// numerics (PCT unique sets, mean and covariance sums; MORPH candidate
	// selection) stay bit-identical to the static run only at the static
	// span boundaries. Argmax scans and per-pixel labeling are
	// chunk-insensitive and run guided.
	pinned bool
	// fpl is the cost-model flops of one scene line, which seeds the
	// balanced schedule's chunk sizing.
	fpl float64
}

// schedule runs an algorithm's phases on the processors.
type schedule interface {
	// shape returns the full scene's geometry.
	shape() (lines, samples, bands int)
	// run executes work once per span the schedule cuts the scene into
	// and returns the partials in span order at the root (nil elsewhere).
	run(ph phase, work balance.Work) []balance.Partial
	// publish distributes the detectors' next target matrix from the root.
	publish(u uMatrix) uMatrix
}

// newSchedule opens the schedule ex asks for. Given a balancer it is the
// demand-driven schedule of package balance, where rows travel with the
// chunk grants and only the geometry is distributed up front; otherwise
// the static schedule — one ScatterCube under ex.Strategy, then a
// rank-order gather per phase — which an adaptive trace wraps in the
// adaptive schedule.
func newSchedule(c *mpi.Comm, f *cube.Cube, ex Exec, halo int) (schedule, error) {
	if ex.Balance != nil {
		var geom [3]int
		if c.Root() {
			geom = [3]int{f.Lines, f.Samples, f.Bands}
		}
		geom = c.Bcast(0, tagScatter, geom, 24).([3]int)
		return &balancedSchedule{roundsComm: roundsComm{c, geom}, b: ex.Balance, halo: halo}, nil
	}
	st, err := newStaticSchedule(c, f, ex.Strategy, halo)
	if err != nil {
		return nil, err
	}
	if ex.Adaptive == nil {
		return st, nil
	}
	return &adaptiveSchedule{staticSchedule: *st, scene: f, trace: ex.Adaptive}, nil
}

// roundsComm is what every schedule holds — its rank's endpoint and the
// scene geometry — and the default way to publish U: a broadcast.
type roundsComm struct {
	c    *mpi.Comm
	geom [3]int
}

func (s *roundsComm) shape() (int, int, int) { return s.geom[0], s.geom[1], s.geom[2] }

func (s *roundsComm) publish(u uMatrix) uMatrix {
	return s.c.Bcast(0, tagBroadcast, u, u.bytes(s.geom[2])).(uMatrix)
}

// staticSchedule is the paper's schedule: every rank keeps the partition
// ScatterCube gave it for the whole run.
type staticSchedule struct {
	roundsComm
	part  LocalPart
	own   *cube.Cube       // part's owned lines; nil when there are none
	spans []partition.Span // root only
}

func newStaticSchedule(c *mpi.Comm, f *cube.Cube, strat partition.Strategy, halo int) (*staticSchedule, error) {
	part, spans, geom, err := ScatterCube(c, f, strat, halo)
	if err != nil {
		return nil, err
	}
	own, err := part.OwnedView()
	if err != nil {
		return nil, err
	}
	return &staticSchedule{roundsComm: roundsComm{c, geom}, part: part, own: own, spans: spans}, nil
}

func (s *staticSchedule) run(ph phase, work balance.Work) []balance.Partial {
	payload, bytes := any(nil), ph.idleBytes
	if view, seen := s.own, s.part.Owned; view != nil {
		if ph.halo {
			view, seen = s.part.Cube, s.part.Halo
		}
		payload, bytes = work(view, s.part.Owned, seen)
	}
	return gatherSpans(s.c, s.spans, ph.tag, payload, bytes)
}

// gatherSpans collects one partial per rank at the root, in rank order —
// which is span order. A rank without lines contributes a nil payload.
func gatherSpans(c *mpi.Comm, spans []partition.Span, tag int, payload any, bytes int) []balance.Partial {
	gathered := c.Gather(0, tag, payload, bytes)
	if gathered == nil {
		return nil
	}
	parts := make([]balance.Partial, len(gathered))
	for r, p := range gathered {
		parts[r] = balance.Partial{Span: spans[r], Rank: r, Payload: p}
	}
	return parts
}

// payloadOf unpacks a partial; the nil payload of a rank that owned no
// lines is the zero T.
func payloadOf[T any](p balance.Partial) T {
	if p.Payload == nil {
		var zero T
		return zero
	}
	return p.Payload.(T)
}

// balancedSchedule runs every phase through balance.RunPhase.
type balancedSchedule struct {
	roundsComm
	b    *balance.Balancer
	halo int
}

func (s *balancedSchedule) run(ph phase, work balance.Work) []balance.Partial {
	bp := balance.Phase{Lines: s.geom[0], FlopsPerLine: ph.fpl}
	if ph.halo {
		bp.Halo = s.halo
	}
	if ph.pinned && s.c.Root() {
		bp.Tasks = s.b.Static()
	}
	return balance.RunPhase(s.c, s.b, bp, work)
}

// assembleLabels stitches span-ordered label partials into the full
// classification image, charging the master's linear assembly pass.
func assembleLabels(c *mpi.Comm, parts []balance.Partial, lines, samples int) []int {
	out := make([]int, lines*samples)
	for _, p := range parts {
		lab := payloadOf[[]int](p)
		if len(lab) != p.Span.Len()*samples {
			panic(fmt.Sprintf("algo: span [%d,%d) of rank %d has %d labels for %d pixels",
				p.Span.Lo, p.Span.Hi, p.Rank, len(lab), p.Span.Len()*samples))
		}
		copy(out[p.Span.Lo*samples:p.Span.Hi*samples], lab)
	}
	c.Compute(float64(len(out)), vtime.Seq)
	return out
}

// criterion scores pixels for one detection round: the brightness F^T F
// of round 0, then ATDCA's orthogonal projection norm or UFCLS's
// reconstruction error against the targets found so far.
type criterion struct {
	// setup and each are a rank's model flops: once per round (projector
	// or Gram build) and per pixel scanned. mSetup and mEach are the
	// master's, re-scoring each span's champion — sequential work, charged
	// at the equivalent band count.
	setup, each, mSetup, mEach float64
	// best returns the highest-scoring pixel of view (global lines from
	// lo on) and its score; the pixel is -1 when none scored (all NaN).
	best func(view *cube.Cube, lo int) (pixel int, score float64, err error)
	// score re-applies the criterion to one champion at the master.
	score func(sig []float32) (float64, error)
}

// brightness is the round-0 criterion that seeds both detectors.
func brightness(bands int) criterion {
	dot := linalg.FlopsDot(bands)
	return criterion{
		each: dot, mEach: dot,
		best: func(view *cube.Cube, _ int) (int, float64, error) {
			best, bestScore := -1, -1.0
			for p := 0; p < view.NumPixels(); p++ {
				if s := view.Brightness(p); s > bestScore {
					best, bestScore = p, s
				}
			}
			return best, bestScore, nil
		},
		score: func(sig []float32) (float64, error) { return spectral.SqNorm(sig), nil },
	}
}

// phase describes the criterion's scan over a scene of the given shape.
func (cr criterion) phase(samples, bands int) phase {
	return phase{tag: tagCandidate, idleBytes: candidateBytes(bands), fpl: float64(samples) * cr.each}
}

// work scans one span for its champion. The per-round setup is a
// constant of the rank, charged with the first span it scans.
func (cr criterion) work(c *mpi.Comm) balance.Work {
	setup := cr.setup
	return func(view *cube.Cube, owned, _ partition.Span) (any, int) {
		bytes := candidateBytes(view.Bands)
		if setup > 0 {
			c.ComputeFixed(setup, vtime.Par)
			setup = 0
		}
		p, score, err := cr.best(view, owned.Lo)
		if err != nil {
			return candidate{err: err}, bytes
		}
		c.Compute(float64(view.NumPixels())*cr.each, vtime.Par)
		if p < 0 {
			return candidate{}, bytes
		}
		l, s := view.Coord(p)
		sig := append([]float32(nil), view.PixelAt(p)...)
		return candidate{line: l + owned.Lo, sample: s, score: score, sig: sig, valid: true}, bytes
	}
}

// pick re-applies the criterion to the span champions at the master and
// selects the maximum — the sequential step of every round. Spans are
// folded in ascending order with a strict comparison, so ties resolve to
// the earliest pixel under any schedule.
func (cr criterion) pick(c *mpi.Comm, parts []balance.Partial) (Target, error) {
	if cr.mSetup > 0 {
		c.ComputeFixed(cr.mSetup, vtime.Seq)
	}
	var best candidate
	bestScore := -1.0
	for _, p := range parts {
		cd := payloadOf[candidate](p)
		if cd.err != nil {
			return Target{}, cd.err
		}
		if !cd.valid {
			continue
		}
		s, err := cr.score(cd.sig)
		if err != nil {
			return Target{}, err
		}
		c.ComputeFixed(cr.mEach, vtime.Seq)
		if s > bestScore {
			best, bestScore = cd, s
		}
	}
	if !best.valid {
		return Target{}, fmt.Errorf("algo: no pixel of the scene has a finite score")
	}
	return Target{Line: best.line, Sample: best.sample, Score: bestScore, Signature: best.sig}, nil
}

// detector is what distinguishes ATDCA from UFCLS: the snapshot name and
// the criterion of the rounds after the first, built from the current U
// with the master's charges at eqBands and what the rank carries.
type detector struct {
	key   string
	round func(u uMatrix, bands, eqBands int, st *carried) (criterion, error)
}

// carried is what a rank keeps of the pixels it scans from one detection
// round to the next, keyed by global line: UFCLS's bounds and ATDCA's
// filter sums.
type carried struct {
	bounds lineBounds
	sums   lineSums
}

// detectRounds is the round loop of both detectors under the schedule ex
// selects: round 0 admits the brightest pixel, every later round the
// pixel that maximizes det's criterion against the targets so far. The
// master snapshots its target list into ex.Checkpoint (nil: none) after
// each round and publishes the grown U.
func detectRounds(c *mpi.Comm, f *cube.Cube, params DetectionParams, ex Exec, det detector) (*DetectionResult, error) {
	t := params.Targets
	if c.Root() {
		if err := validateTargets(f, t); err != nil {
			return nil, err
		}
	}
	s, err := newSchedule(c, f, ex, 0)
	if err != nil {
		return nil, err
	}
	_, samples, bands := s.shape()

	// A snapshot from a larger run resumes this one at its final round.
	restored, start := resume(c, ex.Checkpoint, det.key, func(b []byte) ([]Target, int, bool) {
		targets, err := decodeTargets(b)
		targets = targets[:min(len(targets), t)]
		return targets, len(targets), err == nil && len(targets) > 0
	})
	var res *DetectionResult
	var u uMatrix
	if c.Root() {
		res = &DetectionResult{Targets: restored}
		for _, tg := range res.Targets {
			u.rows = append(u.rows, linalg.Widen(nil, tg.Signature))
		}
	}
	if start > 0 {
		u = s.publish(u)
	}
	var st carried
	for round := start; round < t; round++ {
		cr := brightness(bands)
		if round > 0 {
			if cr, err = det.round(u, bands, params.eqBands(bands), &st); err != nil {
				return nil, err
			}
		}
		parts := s.run(cr.phase(samples, bands), cr.work(c))
		if c.Root() {
			best, err := cr.pick(c, parts)
			if err != nil {
				return nil, err
			}
			res.Targets = append(res.Targets, best)
			u.rows = append(u.rows, linalg.Widen(nil, best.Signature))
			if err := save(c, ex.Checkpoint, det.key, len(res.Targets), func() []byte { return encodeTargets(res.Targets) }); err != nil {
				return nil, err
			}
		}
		u = s.publish(u)
	}
	return res, nil
}
