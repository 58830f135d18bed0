package linalg

import (
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
