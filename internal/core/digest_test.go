package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/platform"
	"repro/internal/scene"
)

// table5Cycle runs one cycle of the bench's table5-compute workload in
// process at the given geometry: the four algorithms over the ten Table 5
// cells (hetero and homo on the four UMD networks, then hetero on
// Thunderhead with 4 and 16 CPUs), scene seeds 1-3 rotating, t = 8.
func table5Cycle(t *testing.T, lines, samples, bands int) []*RunReport {
	t.Helper()
	scenes := map[int64]*cube.Cube{}
	type cell struct {
		variant Variant
		network string
		cpus    int
	}
	var cells []cell
	for _, v := range []Variant{Hetero, Homo} {
		for _, n := range []string{"fully-het", "fully-homo", "part-het", "part-homo"} {
			cells = append(cells, cell{v, n, 0})
		}
	}
	cells = append(cells, cell{Hetero, "thunderhead", 4}, cell{Hetero, "thunderhead", 16})
	var reps []*RunReport
	i := 0
	for _, alg := range Algorithms {
		for _, c := range cells {
			seed := int64(1 + i%3)
			i++
			f := scenes[seed]
			if f == nil {
				sc, err := scene.Generate(scene.Config{Lines: lines, Samples: samples, Bands: bands, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				f, scenes[seed] = sc.Cube, sc.Cube
			}
			net, err := platform.ByName(c.network, c.cpus)
			if err != nil {
				t.Fatal(err)
			}
			params := DefaultParams()
			params.Targets = 8
			rep, err := Run(net, alg, c.variant, f, params)
			if err != nil {
				t.Fatalf("%s %s %s: %v", alg, c.variant, c.network, err)
			}
			reps = append(reps, rep)
		}
	}
	return reps
}

// The reports of a table5-compute cycle are pinned bit for bit: a kernel
// or schedule change that claims to keep the numerics must leave the
// SHA-256 of their concatenated JSON where it was.
func TestTable5CycleDigest(t *testing.T) {
	for _, tc := range []struct {
		lines, samples, bands int
		digest                string
	}{
		{24, 16, 8, "1fa6f8fdf30ffd027521a66bcf44d805129851bedc878c62649538ce2f23037f"},
		{64, 64, 32, "38794353bd7d3d1507e919289771b10acd1616248e1f627bc1f64349d6d3f390"},
		{96, 64, 64, "44d05d4d5e8258726f828e89ea4461054fe66377ad1e615c118fc7bf89518be8"},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", tc.lines, tc.samples, tc.bands), func(t *testing.T) {
			if testing.Short() && tc.bands > 8 {
				t.Skip("full-size cycle")
			}
			reps := table5Cycle(t, tc.lines, tc.samples, tc.bands)
			if len(reps) != 40 {
				t.Fatalf("%d reports, want 40", len(reps))
			}
			h := sha256.New()
			for _, rep := range reps {
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
				t.Fatalf("SHA-256 of the cycle's reports %s, want %s", got, tc.digest)
			}
		})
	}
}
