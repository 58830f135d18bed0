package algo

import (
	"repro/internal/balance"
	"repro/internal/cube"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/vtime"
)

// This file implements the dynamic load balancing the paper's conclusions
// point to as future work ("resource-aware static and dynamic task
// scheduling"): the adaptive schedule (Exec.Adaptive), which starts from
// the static one — equal shares, assuming NOTHING about processor speeds
// — and re-partitions between detection rounds based on each worker's
// measured busy time.
// After a few rounds the shares converge to the true speed proportions,
// so the algorithm matches WEA's balance without WEA's requirement that
// cycle-times be known (and stays balanced if they were declared wrong).

// rebalanceThreshold is the busy-time imbalance (max/min over workers
// with rows) above which the master re-partitions. Rebalancing below
// ~1.05 thrashes on measurement noise.
const rebalanceThreshold = 1.15

// AdaptiveTrace records, per detection round, the measured imbalance and
// whether the master re-partitioned — the convergence story of the
// adaptive run. The root records it through Exec.Adaptive.
type AdaptiveTrace struct {
	// Imbalance[r] is max/min worker busy time measured after round r.
	Imbalance []float64
	// Rebalanced[r] reports whether round r triggered a re-partition.
	Rebalanced []bool
	// MovedRows[r] is the number of rows that changed owner after round r.
	MovedRows []int
	// FinalSpans are the line spans the last published round left.
	FinalSpans []partition.Span
}

// roundReport is a worker's per-phase measurement piggybacked on its
// partial.
type roundReport struct {
	payload any
	busy    float64 // busy seconds spent in this phase's work
	rows    int
}

// adaptiveUpdate is the master's per-round instruction to one worker: the
// next round's target matrix and (possibly unchanged) partition.
type adaptiveUpdate struct {
	u    uMatrix
	part LocalPart
}

// adaptiveSchedule is the static schedule with two additions: every phase
// measures each rank's busy time around its work, and publishing the next
// U re-partitions the scene when the measurements are out of balance.
type adaptiveSchedule struct {
	staticSchedule
	scene   *cube.Cube     // root only
	reports []roundReport  // root only: the last phase's measurements
	trace   *AdaptiveTrace // root only writes it
}

func (a *adaptiveSchedule) run(ph phase, work balance.Work) []balance.Partial {
	ph.idleBytes += 16
	parts := a.staticSchedule.run(ph, func(view *cube.Cube, owned, halo partition.Span) (any, int) {
		busy0 := a.c.Clock().Busy()
		payload, bytes := work(view, owned, halo)
		return roundReport{payload: payload, busy: a.c.Clock().Busy() - busy0, rows: owned.Len()}, bytes + 16
	})
	a.reports = a.reports[:0]
	for i := range parts {
		rep := payloadOf[roundReport](parts[i])
		a.reports = append(a.reports, rep)
		parts[i].Payload = rep.payload
	}
	return parts
}

// publish decides at the root whether the measured busy times warrant a
// re-partition, then sends every worker its next-round update (new U, and
// its partition — unchanged or moved). The transfer cost charged per
// worker is the U matrix plus the rows it did not already hold. A publish
// that follows no phase (a resumed run's first) measures nothing, moves
// nothing and records nothing.
func (a *adaptiveSchedule) publish(u uMatrix) uMatrix {
	c := a.c
	lines, samples, bands := a.shape()
	if !c.Root() {
		upd := mpi.RecvAs[adaptiveUpdate](c, 0, tagBroadcast)
		a.part, a.own = upd.part, upd.part.Cube
		return upd.u
	}

	// Measure imbalance over workers that actually had rows.
	imb, speeds := measureRound(a.reports)
	rebalance := imb > rebalanceThreshold
	newSpans := a.spans
	if rebalance {
		newSpans = apportionRows(lines, speeds)
		// Re-partitioning is master bookkeeping.
		c.ComputeFixed(float64(len(a.spans))*20, vtime.Seq)
	}
	moved := 0
	for r := 0; r < c.Size(); r++ {
		span := newSpans[r]
		np := LocalPart{Owned: span, Halo: span}
		if span.Len() > 0 {
			view, err := a.scene.Rows(span.Lo, span.Hi)
			if err != nil {
				panic(err)
			}
			np.Cube = view
		}
		if r == 0 {
			a.part, a.own = np, np.Cube
			continue
		}
		newRows := span.NotIn(a.spans[r])
		moved += newRows
		bytes := u.bytes(bands) + int(float64(newRows*samples*bands*4)*c.DataScale())
		c.Send(r, tagBroadcast, adaptiveUpdate{u: u, part: np}, bytes)
	}
	a.spans = newSpans
	a.trace.FinalSpans = newSpans
	if len(a.reports) > 0 {
		a.trace.Imbalance = append(a.trace.Imbalance, imb)
		a.trace.Rebalanced = append(a.trace.Rebalanced, rebalance)
		a.trace.MovedRows = append(a.trace.MovedRows, moved)
	}
	return u
}

// measureRound returns the busy-time imbalance across row-holding workers
// and each worker's estimated speed (rows per busy second).
func measureRound(reports []roundReport) (float64, []float64) {
	speeds := make([]float64, len(reports))
	minB, maxB := 0.0, 0.0
	first := true
	for i, r := range reports {
		if r.rows == 0 || r.busy <= 0 {
			speeds[i] = 0
			continue
		}
		speeds[i] = float64(r.rows) / r.busy
		if first {
			minB, maxB = r.busy, r.busy
			first = false
			continue
		}
		if r.busy < minB {
			minB = r.busy
		}
		if r.busy > maxB {
			maxB = r.busy
		}
	}
	if first || minB <= 0 {
		return 1, speeds
	}
	return maxB / minB, speeds
}

// apportionRows re-partitions the scene's lines proportionally to the
// estimated speeds. Workers with no estimate (no rows last round) weigh
// as much as the slowest measured worker, so a starved processor can
// re-enter. publish calls it only on a measured imbalance, so at least
// one speed is positive.
func apportionRows(lines int, speeds []float64) []partition.Span {
	minSpeed := 0.0
	for _, s := range speeds {
		if s > 0 && (minSpeed == 0 || s < minSpeed) {
			minSpeed = s
		}
	}
	weights := make([]float64, len(speeds))
	for i, s := range speeds {
		weights[i] = s
		if s <= 0 {
			weights[i] = minSpeed
		}
	}
	spans, err := partition.ByWeight(lines, weights)
	if err != nil {
		panic(err)
	}
	return spans
}
