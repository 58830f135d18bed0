package partition

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func procsWith(cycleTimes []float64, memMB int) []platform.Processor {
	out := make([]platform.Processor, len(cycleTimes))
	for i, w := range cycleTimes {
		out[i] = platform.Processor{ID: i + 1, CycleTime: w, MemoryMB: memMB}
	}
	return out
}

func spanLens(spans []Span) []int {
	out := make([]int, len(spans))
	for i, s := range spans {
		out[i] = s.Len()
	}
	return out
}

func TestHeterogeneousProportionalToSpeed(t *testing.T) {
	// Speeds 1:2:4 over 70 lines: expect 10/20/40.
	procs := procsWith([]float64{0.04, 0.02, 0.01}, 4096)
	spans, err := (Heterogeneous{}).Partition(70, 10, 10, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spans, 70); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 40}
	got := spanLens(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span lens = %v, want %v", got, want)
			break
		}
	}
}

func TestHomogeneousEqualShares(t *testing.T) {
	procs := procsWith([]float64{0.04, 0.02, 0.01, 0.005}, 4096)
	spans, err := (Homogeneous{}).Partition(100, 10, 10, procs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range spans {
		if s.Len() != 25 {
			t.Errorf("span %d = %d lines, want 25", i, s.Len())
		}
	}
}

func TestRoundingDistributesRemainder(t *testing.T) {
	procs := procsWith([]float64{0.01, 0.01, 0.01}, 4096)
	spans, err := (Heterogeneous{}).Partition(10, 10, 10, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spans, 10); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range spans {
		if s.Len() < 3 || s.Len() > 4 {
			t.Errorf("uneven remainder distribution: %v", spanLens(spans))
		}
		total += s.Len()
	}
	if total != 10 {
		t.Errorf("assigned %d of 10 lines", total)
	}
}

func TestMemoryBoundClampsAndRedistributes(t *testing.T) {
	// The fast processor can only hold a few lines; its overflow must
	// move to the others (step 3b of Algorithm 1).
	samples, bands := 64, 64
	procs := []platform.Processor{
		{ID: 1, CycleTime: 0.001, MemoryMB: 1},  // very fast, tiny memory
		{ID: 2, CycleTime: 0.01, MemoryMB: 512}, // slower, large memory
		{ID: 3, CycleTime: 0.01, MemoryMB: 512},
	}
	cap0 := MaxLines(procs[0], samples, bands)
	lines := cap0 + 100
	spans, err := (Heterogeneous{}).Partition(lines, samples, bands, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spans, lines); err != nil {
		t.Fatal(err)
	}
	if spans[0].Len() > cap0 {
		t.Errorf("processor 1 assigned %d lines above its cap %d", spans[0].Len(), cap0)
	}
	if spans[1].Len()+spans[2].Len() < 100 {
		t.Errorf("overflow not redistributed: %v", spanLens(spans))
	}
	// The two identical slower processors split the overflow evenly.
	if diff := spans[1].Len() - spans[2].Len(); diff < -1 || diff > 1 {
		t.Errorf("uneven redistribution: %v", spanLens(spans))
	}
}

func TestInsufficientMemoryError(t *testing.T) {
	procs := procsWith([]float64{0.01, 0.01}, 1) // 1 MB each
	samples, bands := 256, 256                   // 256 KB per line
	capTotal := MaxLines(procs[0], samples, bands) * 2
	_, err := (Heterogeneous{}).Partition(capTotal+1, samples, bands, procs)
	if !errors.Is(err, ErrInsufficientMemory) {
		t.Errorf("err = %v, want ErrInsufficientMemory", err)
	}
}

func TestMoreProcessorsThanLines(t *testing.T) {
	procs := procsWith([]float64{0.01, 0.01, 0.01, 0.01, 0.01}, 4096)
	spans, err := (Homogeneous{}).Partition(3, 8, 8, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spans, 3); err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, s := range spans {
		if s.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Errorf("%d non-empty spans for 3 lines", nonEmpty)
	}
}

func TestInvalidInputs(t *testing.T) {
	procs := procsWith([]float64{0.01}, 1024)
	for _, bad := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := (Heterogeneous{}).Partition(bad[0], bad[1], bad[2], procs); err == nil {
			t.Errorf("geometry %v: expected error", bad)
		}
	}
	if _, err := (Heterogeneous{}).Partition(10, 10, 10, nil); err == nil {
		t.Error("no processors: expected error")
	}
}

// Name identifies the strategy in test output ("heterogeneous" for WEA,
// "homogeneous" for the equal-share variant).
func (Heterogeneous) Name() string { return "heterogeneous" }

// Name identifies the strategy in test output.
func (Homogeneous) Name() string { return "homogeneous" }

func TestStrategyNames(t *testing.T) {
	if (Heterogeneous{}).Name() != "heterogeneous" || (Homogeneous{}).Name() != "homogeneous" {
		t.Error("strategy names wrong")
	}
}

func TestUMDPlatformPartition(t *testing.T) {
	// On the paper's fully heterogeneous network, WEA must give the
	// fastest machine (p3, 0.0026) the largest share and the UltraSparc
	// (p10, 0.0451) the smallest.
	procs := platform.HeterogeneousProcessors()
	spans, err := (Heterogeneous{}).Partition(1024, 96, 64, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spans, 1024); err != nil {
		t.Fatal(err)
	}
	lens := spanLens(spans)
	for i, l := range lens {
		if i == 2 {
			continue
		}
		if lens[2] < l {
			t.Errorf("p3 share %d smaller than p%d share %d", lens[2], i+1, l)
		}
	}
	for i, l := range lens {
		if i == 9 {
			continue
		}
		if lens[9] > l {
			t.Errorf("p10 share %d larger than p%d share %d", lens[9], i+1, l)
		}
	}
	// Shares track speeds to within a line of proportionality.
	var speedSum float64
	for _, p := range procs {
		speedSum += p.Speed()
	}
	for i, p := range procs {
		want := 1024 * p.Speed() / speedSum
		if math.Abs(float64(lens[i])-want) > 1.5 {
			t.Errorf("p%d share %d, want ~%.1f", i+1, lens[i], want)
		}
	}
}

func TestWithOverlap(t *testing.T) {
	spans := []Span{{0, 10}, {10, 20}, {20, 30}}
	got := WithOverlap(spans, 3, 30)
	want := []Span{{0, 13}, {7, 23}, {17, 30}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("overlap spans = %v, want %v", got, want)
			break
		}
	}
	// Zero halo is the identity.
	same := WithOverlap(spans, 0, 30)
	for i := range spans {
		if same[i] != spans[i] {
			t.Error("zero halo changed spans")
		}
	}
	// Empty spans stay empty.
	withEmpty := WithOverlap([]Span{{0, 10}, {10, 10}}, 2, 10)
	if withEmpty[1].Len() != 0 {
		t.Errorf("empty span grew: %v", withEmpty[1])
	}
}

func TestWithOverlapNegativeHaloPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative halo did not panic")
		}
	}()
	WithOverlap([]Span{{0, 5}}, -1, 5)
}

func TestValidateRejectsBadTilings(t *testing.T) {
	if err := Validate([]Span{{0, 5}, {6, 10}}, 10); err == nil {
		t.Error("gap not detected")
	}
	if err := Validate([]Span{{0, 5}, {4, 10}}, 10); err == nil {
		t.Error("overlap not detected")
	}
	if err := Validate([]Span{{0, 5}}, 10); err == nil {
		t.Error("short cover not detected")
	}
	if err := Validate([]Span{{0, 5}, {5, 10}}, 10); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
}

func TestMaxLines(t *testing.T) {
	p := platform.Processor{MemoryMB: 1024}
	// 1024 MB * 0.5 budget / (100*100*4 bytes per line).
	budget := MemoryFraction * 1024 * float64(1<<20)
	want := int(budget / (100 * 100 * 4))
	if got := MaxLines(p, 100, 100); got != want {
		t.Errorf("MaxLines = %d, want %d", got, want)
	}
}

// Property: for any processor mix and line count, both strategies produce
// a valid contiguous tiling with no span exceeding its memory cap.
func TestQuickPartitionAlwaysValid(t *testing.T) {
	f := func(rawLines uint16, rawW []uint8, memSel uint8) bool {
		lines := 1 + int(rawLines)%2000
		if len(rawW) == 0 {
			rawW = []uint8{1}
		}
		if len(rawW) > 16 {
			rawW = rawW[:16]
		}
		mems := []int{64, 256, 1024, 2048}
		procs := make([]platform.Processor, len(rawW))
		for i, w := range rawW {
			procs[i] = platform.Processor{
				ID:        i + 1,
				CycleTime: 0.001 * float64(1+int(w)%50),
				MemoryMB:  mems[(int(memSel)+i)%len(mems)],
			}
		}
		samples, bands := 32, 32
		for _, strat := range []Strategy{Heterogeneous{}, Homogeneous{}} {
			spans, err := strat.Partition(lines, samples, bands, procs)
			if errors.Is(err, ErrInsufficientMemory) {
				continue // legitimately too big
			}
			if err != nil {
				return false
			}
			if Validate(spans, lines) != nil {
				return false
			}
			for i, s := range spans {
				if s.Len() > MaxLines(procs[i], samples, bands) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: overlap spans always contain their base span and stay inside
// the image.
func TestQuickOverlapContainsBase(t *testing.T) {
	f := func(rawLines uint8, halo uint8, nRaw uint8) bool {
		lines := 4 + int(rawLines)%100
		n := 1 + int(nRaw)%8
		procs := procsWith(make([]float64, n), 4096)
		for i := range procs {
			procs[i].CycleTime = 0.01
		}
		spans, err := (Homogeneous{}).Partition(lines, 8, 8, procs)
		if err != nil {
			return false
		}
		h := int(halo) % 10
		over := WithOverlap(spans, h, lines)
		for i := range spans {
			if spans[i].Len() == 0 {
				continue
			}
			if over[i].Lo > spans[i].Lo || over[i].Hi < spans[i].Hi {
				return false
			}
			if over[i].Lo < 0 || over[i].Hi > lines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestActiveIndexesByWeight(t *testing.T) {
	weights := []float64{1, 5, 3, 5}
	active := []bool{true, true, false, true}
	got := activeIndexesByWeight(weights, active)
	// Sorted by descending weight, ties by index; inactive excluded.
	want := []int{1, 3, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := activeIndexesByWeight(weights, []bool{false, false, false, false}); len(out) != 0 {
		t.Errorf("all inactive returned %v", out)
	}
}

func TestApportionDirect(t *testing.T) {
	// The helper behind both strategies: weights 2:1 over 9 units.
	counts, err := apportion(9, []float64{2, 1}, []int{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 6 || counts[1] != 3 {
		t.Errorf("counts = %v, want [6 3]", counts)
	}
	// Speeds 1:3:0:4 over 100 rows: quotas 12.5/37.5/0/50, the tied
	// remainder goes to the lower index and the zero weight gets nothing.
	counts, err = apportion(100, []float64{1, 3, 0, 4}, []int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{13, 37, 0, 50}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	// Equal weights: equal shares, the remainder to the lowest indexes.
	counts, err = apportion(11, []float64{2, 2, 2}, []int{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 4, 3}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	// A weight mass past MaxFloat64 keeps its proportions instead of
	// zeroing every quota and dealing rows out round-robin.
	counts, err = apportion(9, []float64{math.MaxFloat64, math.MaxFloat64, 1}, []int{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 4, 0}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	// Negative weight rejected.
	if _, err := apportion(5, []float64{-1, 1}, []int{10, 10}); err == nil {
		t.Error("negative weight: expected error")
	}
	// Zero weight mass with demand: insufficient.
	if _, err := apportion(5, []float64{0, 0}, []int{10, 10}); err == nil {
		t.Error("zero weights: expected error")
	}
}
