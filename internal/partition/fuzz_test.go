package partition

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/platform"
)

// FuzzPartition throws arbitrary geometries and processor sets (cycle
// times decoded straight from raw bits, so NaN, ±Inf, zero, denormals and
// negatives all occur; memory bounds from tiny to overflowing) at every
// strategy, the same raw bits serving as Weighted's weights. The
// invariant: every call either returns an error or a complete,
// non-overlapping partition of [0, lines) with one span per processor,
// each within its memory bound — never a panic, never a malformed tiling
// — and Weighted gives every zero weight an empty span.
func FuzzPartition(f *testing.F) {
	seed := func(lines, samples, bands int, procs []byte) {
		f.Add(lines, samples, bands, procs)
	}
	le := binary.LittleEndian
	enc := func(cts []float64, mems []uint16) []byte {
		var b []byte
		for i, ct := range cts {
			b = le.AppendUint64(b, math.Float64bits(ct))
			b = le.AppendUint16(b, mems[i])
		}
		return b
	}
	seed(64, 32, 16, enc([]float64{0.0072, 0.0102, 0.0287}, []uint16{256, 256, 256}))
	seed(100, 614, 224, enc([]float64{0.01, 0.01}, []uint16{1024, 1024}))
	seed(7, 16, 8, enc([]float64{math.NaN(), 0.01}, []uint16{64, 64}))
	seed(7, 16, 8, enc([]float64{0, 0.01}, []uint16{64, 64})) // zero cycle-time: +Inf speed
	seed(1, 1, 1, enc([]float64{1e-300, 1e300}, []uint16{1, 65535}))
	seed(1<<30, 1, 1, enc([]float64{0.01}, []uint16{65535}))
	seed(10, 1<<30, 1<<30, enc([]float64{0.01}, []uint16{65535}))
	seed(5, 4, 4, nil)
	seed(1<<30, 1, 1, enc([]float64{math.MaxFloat64, math.MaxFloat64}, []uint16{1, 1})) // weight mass overflows
	seed(math.MaxInt, 1, 1, enc([]float64{1, 0, 3}, []uint16{1, 1, 1}))

	f.Fuzz(func(t *testing.T, lines, samples, bands int, raw []byte) {
		const chunk = 10
		n := len(raw) / chunk
		if n > 64 {
			n = 64 // span layout is O(procs); cap the set, not the values
		}
		procs := make([]platform.Processor, 0, n)
		for i := 0; i < n; i++ {
			b := raw[i*chunk : (i+1)*chunk]
			mem := int(le.Uint16(b[8:10]))
			if i%4 == 3 {
				mem <<= 16 // exercise the MaxLines overflow path
			}
			procs = append(procs, platform.Processor{
				ID:        i + 1,
				CycleTime: math.Float64frombits(le.Uint64(b[:8])),
				MemoryMB:  mem,
			})
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = math.Float64frombits(le.Uint64(raw[i*chunk:]))
		}
		for _, strat := range []Strategy{Heterogeneous{}, Homogeneous{}, Weighted{Weights: weights}} {
			spans, err := strat.Partition(lines, samples, bands, procs)
			if err != nil {
				continue // rejecting bad input is the correct outcome
			}
			if len(spans) != len(procs) {
				t.Fatalf("%T: %d spans for %d procs", strat, len(spans), len(procs))
			}
			if err := Validate(spans, lines); err != nil {
				t.Fatalf("%T(%d,%d,%d): accepted input yields invalid tiling: %v",
					strat, lines, samples, bands, err)
			}
			for i, s := range spans {
				if got, max := s.Len(), MaxLines(procs[i], samples, bands); got > max {
					t.Fatalf("%T: span %d holds %d lines, memory bound is %d", strat, i, got, max)
				}
				if _, ok := strat.(Weighted); ok && weights[i] == 0 && s.Len() != 0 {
					t.Fatalf("Weighted(%d, %v): zero weight %d got span %v", lines, weights, i, s)
				}
			}
		}
	})
}
