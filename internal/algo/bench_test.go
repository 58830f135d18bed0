package algo

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/scene"
)

// The data-parallel kernel benchmarks. Run with -cpu 1,4,8 to measure
// the par fan-out: the worker budget defaults to GOMAXPROCS, so the
// -cpu variants are the serial/parallel wall-clock comparison.

func BenchmarkKernelCovariance(b *testing.B) {
	f, _ := materialsCube(96, 64, 48, 6)
	sum, finite := finiteMeanSums(f)
	mean := make([]float64, f.Bands)
	for k := range mean {
		mean[k] = sum[k] / float64(finite)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := linalg.NewMat(f.Bands, f.Bands)
		covarianceUpper(f, mean, acc)
	}
}

// detectionScan returns the 96x64x64 seed-1 Table 5 scene and its first
// seven ATDCA targets: the U of one round-8 scan for either detector.
func detectionScan(b *testing.B) (*cube.Cube, uMatrix) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := ATDCASequential(sc.Cube, 7)
	if err != nil {
		b.Fatal(err)
	}
	var u uMatrix
	for _, tg := range res.Targets {
		u.rows = append(u.rows, linalg.Widen(nil, tg.Signature))
	}
	return sc.Cube, u
}

// BenchmarkKernelATDCAScan is one ATDCA round at t = 7: the projector and
// its filter, then the scan for the largest projection.
func BenchmarkKernelATDCAScan(b *testing.B) {
	f, u := detectionScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := projectionCriterion(u, f.Bands, f.Bands, new(carried))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := cr.best(f, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelATDCARounds is ATDCA's seven projection rounds at t = 8
// on the same scene, with the filter sums carried from round to round as
// a rank carries them: after the first, a round adds one row of Q per
// pixel, which shows here, not in one round.
func BenchmarkKernelATDCARounds(b *testing.B) {
	f, targets := detectionScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st carried
		var u uMatrix
		for _, row := range targets.rows {
			u.rows = append(u.rows, row)
			cr, err := projectionCriterion(u, f.Bands, f.Bands, &st)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cr.best(f, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKernelUFCLSScan is one UFCLS round at t = 7: every pixel
// unmixed for the largest reconstruction error.
func BenchmarkKernelUFCLSScan(b *testing.B) {
	f, u := detectionScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := maxErrorScan(f, u, f.Bands, new(lineBounds).rows(f, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelUFCLSRounds is UFCLS's seven scan rounds at t = 8 on
// the same scene, with the bounds carried from round to round as a rank
// carries them: the solves the bounds save show here, not in one round.
func BenchmarkKernelUFCLSRounds(b *testing.B) {
	f, _ := detectionScan(b)
	res, err := UFCLSSequential(f, 8)
	if err != nil {
		b.Fatal(err)
	}
	solves := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bounds lineBounds
		var u uMatrix
		for _, tg := range res.Targets[:7] {
			u.rows = append(u.rows, linalg.Widen(nil, tg.Signature))
			_, _, n, err := maxErrorScan(f, u, f.Bands, bounds.rows(f, 0))
			if err != nil {
				b.Fatal(err)
			}
			solves += n
		}
	}
	perOp := float64(solves) / float64(b.N)
	b.ReportMetric(perOp, "solves/op")
	b.ReportMetric(100*(1-perOp/float64(7*f.NumPixels())), "skip%")
}

func BenchmarkKernelLabelBySAD(b *testing.B) {
	f, _ := materialsCube(128, 64, 32, 6)
	endmembers := make([][]float32, 6)
	for m := range endmembers {
		endmembers[m] = f.PixelAt((m*128/6 + 1) * 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labelBySAD(f, endmembers)
	}
}

// BenchmarkKernelUniqueScan is PCT's unique-set scan with the default
// parameters on the 96x64x64 seed-1 Table 5 scene: one Set.Nearest per
// finite pixel, against a set that fills to MaxReps.
func BenchmarkKernelUniqueScan(b *testing.B) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultPCTParams()
	var reps []rep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, _ = uniqueScan(sc.Cube, p.Theta, p.MaxReps)
	}
	b.ReportMetric(float64(len(reps)), "reps")
}
