package algo

import (
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/vtime"
)

// This file implements the partitioning alternative Section 2.1 of the
// paper rejects: spectral-domain decomposition, where each processor
// holds every pixel but only a contiguous slice of the spectral bands.
// Any per-pixel quantity (here: the brightness F^T F that seeds both
// detectors) then requires combining partial results for EVERY pixel
// across ALL processors — a gather whose volume grows with the pixel
// count times the processor count, instead of the one-candidate-per-
// processor exchange the paper's hybrid spatial partitioning needs.
// BenchmarkAblationPartitionAxis quantifies the difference.

// bandSlice is a worker's share of the spectrum under spectral-domain
// partitioning.
type bandSlice struct {
	cube     *cube.Cube // all pixels, bands [lo, hi) of the original
	lo, hi   int
	geomFull [3]int
}

// scatterBands distributes contiguous band slices of f (present at the
// root) across all ranks, equally sized. The transfer cost per worker is
// its slice's serialized size, exactly like the spatial scatter.
func scatterBands(c *mpi.Comm, f *cube.Cube) (bandSlice, error) {
	if c.Root() {
		if f == nil {
			return bandSlice{}, fmt.Errorf("algo: root has no cube to scatter")
		}
		p := c.Size()
		geom := [3]int{f.Lines, f.Samples, f.Bands}
		var mine bandSlice
		for r := 0; r < p; r++ {
			lo := r * f.Bands / p
			hi := (r + 1) * f.Bands / p
			sl := bandSlice{lo: lo, hi: hi, geomFull: geom}
			if hi > lo {
				sl.cube = cube.MustNew(f.Lines, f.Samples, hi-lo)
				for px := 0; px < f.NumPixels(); px++ {
					copy(sl.cube.PixelAt(px), f.PixelAt(px)[lo:hi])
				}
			}
			if r == 0 {
				mine = sl
				continue
			}
			bytes := 0
			if sl.cube != nil {
				bytes = int(float64(sl.cube.SizeBytes()) * c.DataScale())
			}
			c.Send(r, tagScatter, sl, bytes)
		}
		return mine, nil
	}
	return mpi.RecvAs[bandSlice](c, 0, tagScatter), nil
}

// BrightestSpectralPartition finds the brightest pixel of f under
// spectral-domain partitioning: each worker computes per-pixel partial
// squared norms over its band slice, and the master gathers and sums the
// full per-pixel vectors — the communication pattern the paper's
// Section 2.1 warns about. Returns the flat pixel index and its
// brightness at the root (-1 elsewhere).
func BrightestSpectralPartition(c *mpi.Comm, f *cube.Cube) (int, float64, error) {
	sl, err := scatterBands(c, f)
	if err != nil {
		return -1, 0, err
	}
	np := sl.geomFull[0] * sl.geomFull[1]
	partial := make([]float64, np)
	if sl.cube != nil {
		for p := 0; p < np; p++ {
			partial[p] = sl.cube.Brightness(p)
		}
		c.Compute(float64(np)*linalg.FlopsDot(sl.cube.Bands), vtime.Par)
	}
	// The per-pixel combination: every rank ships np partial sums. This
	// is the pixel-count-proportional exchange, so it carries the data
	// scale.
	bytes := int(8 * float64(np) * c.DataScale())
	parts := c.Gather(0, tagPartial, partial, bytes)
	if !c.Root() {
		return -1, 0, nil
	}
	total := make([]float64, np)
	for _, part := range parts {
		for p, v := range part.([]float64) {
			total[p] += v
		}
	}
	c.Compute(float64(len(parts))*float64(np), vtime.Seq)
	best, bestV := 0, total[0]
	for p, v := range total {
		if v > bestV {
			best, bestV = p, v
		}
	}
	c.Compute(float64(np), vtime.Seq)
	return best, bestV, nil
}

// BrightestSpatialPartition is the same query under the paper's hybrid
// spatial partitioning: one candidate per processor, combined at the
// master. Returns the flat pixel index and its brightness at the root
// (-1 elsewhere).
func BrightestSpatialPartition(c *mpi.Comm, f *cube.Cube, strat partition.Strategy) (int, float64, error) {
	s, err := newStaticSchedule(c, f, strat, 0)
	if err != nil {
		return -1, 0, err
	}
	_, samples, bands := s.shape()
	cr := brightness(bands)
	parts := s.run(cr.phase(samples, bands), cr.work(c))
	if !c.Root() {
		return -1, 0, nil
	}
	best, err := cr.pick(c, parts)
	if err != nil {
		return -1, 0, err
	}
	return best.Line*samples + best.Sample, best.Score, nil
}

func TestSpectralVsSpatialPartitionAgree(t *testing.T) {
	// Both partitioning axes must find the same brightest pixel; the
	// spectral-domain variant just pays vastly more communication.
	sc := testScene(t)
	net := testNet(t, 4)
	run := func(spectral bool) (int, float64, float64) {
		w := mpi.NewWorld(net)
		res, err := w.Run(func(c *mpi.Comm) any {
			var idx int
			var v float64
			var err error
			if spectral {
				idx, v, err = BrightestSpectralPartition(c, rootCube(c, sc.Cube))
			} else {
				idx, v, err = BrightestSpatialPartition(c, rootCube(c, sc.Cube), partition.Homogeneous{})
			}
			if err != nil {
				panic(err)
			}
			return [2]float64{float64(idx), v}
		})
		if err != nil {
			t.Fatal(err)
		}
		out := res.Root().([2]float64)
		com, _, _ := res.RootBreakdown()
		return int(out[0]), out[1], com
	}
	si, sv, scom := run(true)
	pi, pv, pcom := run(false)
	if si != pi {
		t.Fatalf("spectral found pixel %d, spatial %d", si, pi)
	}
	if sv != pv {
		t.Errorf("brightness differs: %v vs %v", sv, pv)
	}
	// The communication blow-up of Section 2.1: the spectral-domain
	// combination ships per-pixel partials from every worker.
	if scom <= pcom {
		t.Errorf("spectral-domain COM %v not above spatial COM %v", scom, pcom)
	}
}

// BenchmarkAblationPartitionAxis quantifies Section 2.1's argument for
// the hybrid spatial partitioning: the same brightest-pixel query under
// spatial-domain decomposition (one candidate per processor) vs
// spectral-domain decomposition (per-pixel partial results combined
// across all processors). The vsec_com metric is the master's
// communication time.
func BenchmarkAblationPartitionAxis(b *testing.B) {
	sc, err := scene.Generate(scene.Config{Lines: 256, Samples: 16, Bands: 24, Seed: 20010916})
	if err != nil {
		b.Fatal(err)
	}
	// The scales experiments.ScaledParams sets for this scene, so that it
	// simulates the paper's 2133x512x224 job.
	pixelRatio := float64(2133*512) / float64(sc.Cube.Lines*sc.Cube.Samples)
	bandRatio := 224.0 / float64(sc.Cube.Bands)
	net := platform.FullyHomogeneous()
	runOnce := func(spectral bool) (float64, float64) {
		world := mpi.NewWorld(net)
		world.SetComputeScale(pixelRatio * bandRatio * bandRatio)
		world.SetDataScale(pixelRatio * bandRatio)
		res, err := world.Run(func(c *mpi.Comm) any {
			var data *cube.Cube
			if c.Root() {
				data = sc.Cube
			}
			var err error
			if spectral {
				_, _, err = BrightestSpectralPartition(c, data)
			} else {
				_, _, err = BrightestSpatialPartition(c, data, partition.Heterogeneous{})
			}
			if err != nil {
				panic(err)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		com, _, _ := res.RootBreakdown()
		return com, res.WallTime()
	}
	b.Run("spatial-hybrid", func(b *testing.B) {
		var com, wall float64
		for i := 0; i < b.N; i++ {
			com, wall = runOnce(false)
		}
		b.ReportMetric(com, "vsec_com")
		b.ReportMetric(wall, "vsec")
	})
	b.Run("spectral-domain", func(b *testing.B) {
		var com, wall float64
		for i := 0; i < b.N; i++ {
			com, wall = runOnce(true)
		}
		b.ReportMetric(com, "vsec_com")
		b.ReportMetric(wall, "vsec")
	})
}
