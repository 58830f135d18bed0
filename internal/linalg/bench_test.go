package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/scene"
)

// BenchmarkAblationFCLSForm compares dense Lawson-Hanson against the
// Gram-form solver used in the UFCLS hot loop.
func BenchmarkAblationFCLSForm(b *testing.B) {
	sc, err := scene.Generate(scene.Config{Lines: 96, Samples: 64, Bands: 64, Seed: 20010916})
	if err != nil {
		b.Fatal(err)
	}
	bands, t := sc.Cube.Bands, 12
	m := NewMat(bands, t)
	for j := 0; j < t; j++ {
		for i := 0; i < bands; i++ {
			m.Set(i, j, float64(sc.Cube.PixelAt(j * 31)[i]))
		}
	}
	y := make([]float64, bands)
	for i := range y {
		y[i] = float64(sc.Cube.PixelAt(4242)[i])
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FCLS(m, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gram", func(b *testing.B) {
		solver := NewFCLSSolver(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.Unmix(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelDenseScan is one rank's per-round projector build in
// ATDCA: the packed P̂, Q and η, at the Table 5 scene's 64 bands and at
// 224 (AVIRIS), for the projector of round 9 and of round 17.
func BenchmarkKernelDenseScan(b *testing.B) {
	for _, n := range []int{64, 224} {
		for _, t := range []int{9, 17} {
			b.Run(fmt.Sprintf("bands=%d/t=%d", n, t), func(b *testing.B) {
				p, err := NewOSP(randMat(rand.New(rand.NewSource(int64(n*t))), t, n))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.DenseScan()
				}
			})
		}
	}
}
