package partition

import (
	"math"
	"testing"
)

// TestEstimatorSeededFromModel asserts a fresh estimator reproduces the
// cycle-time model exactly: factors start at 1, so predicted chunk times
// are the WEA proportions.
func TestEstimatorSeededFromModel(t *testing.T) {
	e := NewEstimator([]float64{0.01, 0.02, 0.04})
	if e.Ranks() != 3 {
		t.Fatalf("Ranks() = %d, want 3", e.Ranks())
	}
	// Rank 0 is twice as fast as rank 1, four times rank 2.
	r0, r1, r2 := e.Rate(0, 1e6), e.Rate(1, 1e6), e.Rate(2, 1e6)
	if math.Abs(r0/r1-2) > 1e-9 || math.Abs(r0/r2-4) > 1e-9 {
		t.Errorf("seed rates %v:%v:%v, want 4:2:1 proportions", r0, r1, r2)
	}
	if got, want := e.Predict(1, 10, 2e6), 10*2*0.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
	if e.Drift() != 0 {
		t.Errorf("fresh estimator has drift %v", e.Drift())
	}
}

// TestEstimatorObserveConverges asserts the EWMA pulls the slowdown
// factor toward reality at the fixed weight: one 3x-slow observation
// moves the factor by estimatorAlpha of the gap, and a rank consistently
// running 3x slower than the model converges to rate/3.
func TestEstimatorObserveConverges(t *testing.T) {
	if estimatorAlpha != 0.3 {
		t.Fatalf("estimator alpha = %v, want 0.3", estimatorAlpha)
	}
	e := NewEstimator([]float64{0.01, 0.01})
	nominal := e.Rate(1, 1e6)
	e.Observe(1, 8, 1e6, 3*8*0.01)
	if got, want := e.Rate(1, 1e6), nominal/(1+2*estimatorAlpha); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("rate after one observation %v, want %v", got, want)
	}
	for i := 0; i < 20; i++ {
		// 8 lines at 1e6 flops/line should take 8*0.01 s; report 3x that.
		e.Observe(1, 8, 1e6, 3*8*0.01)
	}
	got := e.Rate(1, 1e6)
	if math.Abs(got-nominal/3)/nominal > 0.01 {
		t.Errorf("converged rate %v, want ~%v", got, nominal/3)
	}
	if e.Drift() <= 0 {
		t.Error("observations disagreed with the model but drift is zero")
	}
	// The untouched rank keeps its model seed.
	if e.Rate(0, 1e6) != nominal {
		t.Error("observing rank 1 changed rank 0's estimate")
	}
}

// TestEstimatorObserveIgnoresGarbage asserts zero-line and negative-time
// observations leave the estimate untouched.
func TestEstimatorObserveIgnoresGarbage(t *testing.T) {
	e := NewEstimator([]float64{0.01})
	before := e.Rate(0, 1e6)
	e.Observe(0, 0, 1e6, 1)
	e.Observe(0, 5, 1e6, math.NaN())
	e.Observe(0, 5, 1e6, -1)
	if e.Rate(0, 1e6) != before || e.Drift() != 0 {
		t.Errorf("garbage observations moved the estimate: rate %v drift %v",
			e.Rate(0, 1e6), e.Drift())
	}
}

// TestReplanEdgeCases drives ByWeight, the adaptive schedule's
// between-round re-partitioning, through the boundary shapes a round's
// measurements can produce. A zero weight is a rank that gets nothing.
func TestReplanEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		weights []float64
		lines   int
		wantErr bool
		// want[i] is rank i's expected line count; nil skips the check.
		want []int
	}{
		{
			name:    "single surviving rank takes everything",
			weights: []float64{0, 1, 0},
			lines:   37,
			want:    []int{0, 37, 0},
		},
		{
			name:    "zero-weight rank gets an empty span",
			weights: []float64{1, 0, 1},
			lines:   10,
			want:    []int{5, 0, 5},
		},
		{
			name:    "every rank disabled is an error",
			weights: []float64{0, 0},
			lines:   10,
			wantErr: true,
		},
		{
			name:    "zero lines yields empty spans",
			weights: []float64{1, 1},
			lines:   0,
			want:    []int{0, 0},
		},
		{
			name:    "negative lines is an error",
			weights: []float64{1},
			lines:   -1,
			wantErr: true,
		},
		{
			name:    "no ranks is an error",
			weights: nil,
			lines:   10,
			wantErr: true,
		},
		{
			// A zero-cost rank's speed is as large as a weight gets; the
			// weight mass overflows float64 but the split stays even.
			name:    "zero-cost model splits evenly",
			weights: []float64{math.MaxFloat64, math.MaxFloat64},
			lines:   8,
			want:    []int{4, 4},
		},
		{
			name:    "non-finite weight is an error",
			weights: []float64{1, math.Inf(1)},
			lines:   8,
			wantErr: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spans, err := ByWeight(tc.lines, tc.weights)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ByWeight(%d, %v) = %v, want error", tc.lines, tc.weights, spans)
				}
				return
			}
			if err != nil {
				t.Fatalf("ByWeight(%d, %v): %v", tc.lines, tc.weights, err)
			}
			if err := Validate(spans, tc.lines); err != nil {
				t.Fatalf("spans do not tile: %v", err)
			}
			if tc.want != nil {
				for i, w := range tc.want {
					if got := spans[i].Len(); got != w {
						t.Errorf("rank %d got %d lines, want %d (spans %v)", i, got, w, spans)
					}
				}
			}
		})
	}
}

// TestDynamicPlanEdgeCases tables the frontier's boundary behavior at
// the fixed grain (4 lines) and guided factor (2).
func TestDynamicPlanEdgeCases(t *testing.T) {
	if chunkGrain != 4 || guidedFactor != 2 {
		t.Fatalf("grain %d, factor %d: want 4 and 2", chunkGrain, guidedFactor)
	}
	t.Run("grain floor above total lines", func(t *testing.T) {
		p := NewDynamicPlan(3)
		if n := p.ChunkSize(1, 1); n != 3 {
			t.Fatalf("ChunkSize = %d, want the whole 3-line frontier", n)
		}
		s := p.Take(3)
		if s != (Span{Lo: 0, Hi: 3}) || p.Remaining() != 0 {
			t.Errorf("Take = %v, remaining %d", s, p.Remaining())
		}
		if n := p.ChunkSize(1, 1); n != 0 {
			t.Errorf("exhausted plan offered %d lines", n)
		}
	})
	t.Run("zero-rate requester still gets the grain", func(t *testing.T) {
		p := NewDynamicPlan(100)
		if n := p.ChunkSize(0, 10); n != 4 {
			t.Errorf("ChunkSize(rate=0) = %d, want grain 4", n)
		}
	})
	t.Run("sub-grain tail is absorbed", func(t *testing.T) {
		p := NewDynamicPlan(10)
		p.Take(p.ChunkSize(0, 0)) // 4 lines
		// 6 remain; a 4-line grant would strand a 2-line tail below the
		// grain, so the chunk takes everything.
		if n := p.ChunkSize(0, 0); n != 6 {
			t.Errorf("ChunkSize = %d, want tail-absorbing 6", n)
		}
	})
	t.Run("guided chunks shrink toward the grain", func(t *testing.T) {
		p := NewDynamicPlan(1000)
		first := p.ChunkSize(1, 1) // sole rank: rem/factor = 500
		if first != 500 {
			t.Fatalf("first chunk %d, want 500", first)
		}
		p.Take(first)
		second := p.ChunkSize(1, 1)
		if second >= first {
			t.Errorf("chunks did not shrink: %d then %d", first, second)
		}
	})
	t.Run("zero lines", func(t *testing.T) {
		p := NewDynamicPlan(0)
		if p.ChunkSize(1, 1) != 0 || p.Remaining() != 0 {
			t.Error("empty plan offered work")
		}
	})
	t.Run("take beyond the frontier panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("Take(5) of 3 remaining did not panic")
			}
		}()
		NewDynamicPlan(3).Take(5)
	})
}

// TestDynamicPlanGrantsTile asserts the structural coverage property the
// balancer's correctness rests on: however chunk sizes are drawn — and
// however the estimator re-rates ranks mid-phase — the grant sequence
// tiles [0, lines) exactly, covering every line once.
func TestDynamicPlanGrantsTile(t *testing.T) {
	for _, lines := range []int{1, 4, 5, 64, 517} {
		e := NewEstimator([]float64{0.01, 0.03, 0.02, 0.09})
		p := NewDynamicPlan(lines)
		var grants []Span
		rank := 0
		for p.Remaining() > 0 {
			// Rotate requesters and keep re-rating mid-phase: the plan
			// must stay consistent under arbitrary interleaving.
			rate := e.Rate(rank, 1e6)
			var total float64
			for r := 0; r < e.Ranks(); r++ {
				total += e.Rate(r, 1e6)
			}
			n := p.ChunkSize(rate, total)
			grants = append(grants, p.Take(n))
			e.Observe(rank, n, 1e6, float64(1+rank)*float64(n)*0.01)
			rank = (rank + 1) % e.Ranks()
		}
		if err := Validate(grants, lines); err != nil {
			t.Errorf("lines=%d: grants do not tile: %v\n%v", lines, err, grants)
		}
	}
}
