// Package algo implements the paper's four hyperspectral analysis
// algorithms — ATDCA and UFCLS target detection (Algorithms 2-3), PCT and
// MORPH classification (Algorithms 4-5) — as master/worker programs
// running on the simulated message-passing cluster of package mpi. The
// sequential baseline the paper times on a single Thunderhead processor
// (Tables 3-4) is the same program on a one-processor network
// (core.RunSequential); the single-threaded forms in sequential_test.go
// are test oracles only.
//
// Every parallel implementation is one body: a sequence of phases (per-
// span work over the scene's lines, folded by the master in span order)
// handed to a schedule, which alone decides how lines reach processors
// (rounds.go). There are three schedules, each best somewhere:
//
//   - static: one scatter under a partitioning strategy, a rank-order
//     gather per phase. The heterogeneous and homogeneous variants differ
//     only in the strategy (WEA vs equal shares), exactly as in the paper;
//     with accurate cycle-times WEA is the fastest schedule.
//   - balanced (Exec.Balance): the demand-driven chunk protocol of
//     package balance, which sheds work from a processor that runs slower
//     than its model says. Chunk-insensitive phases — the detectors'
//     argmax scans and the classifiers' per-pixel labeling — run as guided
//     chunks; partition-sensitive numerics (PCT's unique sets, mean and
//     covariance sums; MORPH's AMEE candidate selection) are pinned to the
//     static spans, handed out whole, so results stay bit-identical.
//   - adaptive (Exec.Adaptive): the static schedule, its spans
//     re-partitioned between detection rounds from measured busy times,
//     for a platform whose speeds are not known at all. Above this package
//     it is the third variant, core.Adaptive, of an ATDCA run: equal
//     initial shares, checkpoints and trace as for any run, and no
//     balancer.
//
// The detectors share one round loop parameterised by the round's scoring
// criterion, and each rank carries per-pixel state from round to round —
// UFCLS's bounds, ATDCA's filter sums — keyed by global line. PCT is the
// one place a body asks which schedule it runs under: the paper's static
// protocol gathers its statistics in three messages and routes the
// reduced cube through the master, which a demand-driven grant makes
// unnecessary.
//
// All parallel implementations are deterministic: given the same scene,
// parameters and platform they return identical results and identical
// virtual timings on every run, and their detections/classifications match
// the sequential test oracles under every schedule.
package algo

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/vtime"
)

// Message tags used by the parallel algorithms. Each protocol step has
// its own tag so mismatched communication fails loudly.
const (
	tagScatter = iota + 1
	tagCandidate
	tagBroadcast
	tagPartial
	tagLabels
	tagSpans
	tagResume
)

// DetectionParams configures the target detection algorithms.
type DetectionParams struct {
	// Targets is the number t of targets to extract.
	Targets int
	// EquivalentBands, when above the scene's actual band count, sets the
	// band count at which the master's per-round sequential work
	// (projector construction and candidate re-scoring) is charged in the
	// virtual-time model. Reduced-scene experiments set it to the paper's
	// 224; see mpi.Comm.ComputeFixed.
	EquivalentBands int
}

// Exec says how a parallel run executes, as opposed to what it computes:
// the parameter structs are pure values, while Exec carries the run's
// handles. Every rank receives the same Exec.
type Exec struct {
	// Strategy partitions the scene's lines for the static schedule.
	Strategy partition.Strategy
	// Balance, when non-nil, replaces the static scatter with the
	// demand-driven chunk protocol of package balance. Nil keeps the
	// static schedule with zero protocol or virtual-time change.
	Balance *balance.Balancer
	// Checkpoint, when non-nil, saves the master's round state at its
	// round boundaries — the detectors' target list after every round,
	// PCT's step-7 state, MORPH's fused endmembers — and resumes from the
	// store's latest snapshot instead of round zero. Nil disables
	// checkpointing with zero protocol or virtual-time change.
	Checkpoint checkpoint.Checkpointer
	// Adaptive, when non-nil, runs the static schedule as the adaptive
	// one: busy times measured around every rank's work, and the scene
	// re-partitioned between detection rounds when they are out of
	// balance. The root records the convergence into it. Balance wins
	// when both are set.
	Adaptive *AdaptiveTrace
}

// eqBands returns the band count used for master-side fixed charges.
func (p DetectionParams) eqBands(actual int) int {
	if p.EquivalentBands > actual {
		return p.EquivalentBands
	}
	return actual
}

// Target is one detected target pixel in global scene coordinates.
type Target struct {
	Line, Sample int
	// Score is the criterion value that selected this target (brightness,
	// orthogonal projection norm, or reconstruction error).
	Score float64
	// Signature is the detected pixel vector.
	Signature []float32
}

// DetectionResult is the output of a target detection algorithm.
type DetectionResult struct {
	Targets []Target
}

// ClassificationResult is the output of an unsupervised classifier.
type ClassificationResult struct {
	// Labels assigns every pixel (flat index) a class in [0, len(Classes)).
	Labels []int
	// Classes holds the representative spectral signature of each class.
	Classes [][]float32
}

// LocalPart is one processor's share of the scene.
type LocalPart struct {
	// Cube is the local data including any halo rows; it is a view into
	// the master's cube (the virtual-time model, not a copy, represents
	// the wire) and must be treated as read-only.
	Cube *cube.Cube
	// Owned is the global line range this processor is responsible for.
	Owned partition.Span
	// Halo is the global line range actually held (Halo contains Owned).
	Halo partition.Span
}

// OwnedView returns the sub-cube of exactly the owned lines.
func (lp LocalPart) OwnedView() (*cube.Cube, error) {
	if lp.Owned.Len() == 0 {
		return nil, nil
	}
	return lp.Cube.Rows(lp.Owned.Lo-lp.Halo.Lo, lp.Owned.Hi-lp.Halo.Lo)
}

// scatterMsg is the per-worker payload of ScatterCube.
type scatterMsg struct {
	part LocalPart
	geom [3]int // full-scene lines, samples, bands
}

// ScatterCube partitions f (present at root only) with the given strategy
// and distributes one partition per rank, extended by halo lines on each
// side. It returns the local partition at every rank; at the root it also
// returns the owned spans of all ranks (needed to reassemble gathered
// results) and the full-scene geometry at every rank.
//
// The transfer cost charged per worker is the serialized size of its halo
// rows, mirroring the paper's use of MPI derived datatypes to scatter the
// data in a single communication step per worker.
func ScatterCube(c *mpi.Comm, f *cube.Cube, strat partition.Strategy, halo int) (LocalPart, []partition.Span, [3]int, error) {
	if c.Root() {
		if f == nil {
			return LocalPart{}, nil, [3]int{}, fmt.Errorf("algo: root has no cube to scatter")
		}
		spans, err := strat.Partition(f.Lines, f.Samples, f.Bands, c.World().Network().Procs)
		if err != nil {
			return LocalPart{}, nil, [3]int{}, err
		}
		halos := partition.WithOverlap(spans, halo, f.Lines)
		// Partitioning itself is master-only work; a scan over the
		// processor list is negligible but accounted.
		c.Compute(float64(len(spans))*10, vtime.Seq)
		geom := [3]int{f.Lines, f.Samples, f.Bands}
		var mine LocalPart
		for r := 0; r < c.Size(); r++ {
			part := LocalPart{Owned: spans[r], Halo: halos[r]}
			if halos[r].Len() > 0 {
				view, err := f.Rows(halos[r].Lo, halos[r].Hi)
				if err != nil {
					return LocalPart{}, nil, [3]int{}, err
				}
				part.Cube = view
			}
			if r == 0 {
				mine = part
				continue
			}
			bytes := 0
			if part.Cube != nil {
				bytes = int(float64(part.Cube.SizeBytes()) * c.DataScale())
			}
			c.Send(r, tagScatter, scatterMsg{part: part, geom: geom}, bytes)
		}
		return mine, spans, geom, nil
	}
	msg := mpi.RecvAs[scatterMsg](c, 0, tagScatter)
	return msg.part, nil, msg.geom, nil
}

// candidate is a span's proposal for one selection round: its champion
// pixel (valid), nothing when no pixel scored, or the error that stopped
// the scan.
type candidate struct {
	line, sample int // global coordinates
	score        float64
	sig          []float32
	valid        bool
	err          error
}

func candidateBytes(bands int) int { return 4*bands + 24 }

// uMatrix serializes the growing target matrix U broadcast each round.
type uMatrix struct {
	rows [][]float64
}

func (u uMatrix) bytes(bands int) int { return 8 * bands * len(u.rows) }

func (u uMatrix) mat(bands int) *linalg.Mat {
	m := linalg.NewMat(len(u.rows), bands)
	for i, r := range u.rows {
		copy(m.Row(i), r)
	}
	return m
}

// floorCount converts a population floor, a fraction of np pixels, into
// a pixel count of at least 4; a fraction <= 0 selects 0.5%.
func floorCount(frac float64, np int) int {
	if frac <= 0 {
		frac = 0.005
	}
	return max(int(frac*float64(np)), 4)
}
