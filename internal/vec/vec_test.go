package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The primitives must return their Go forms' bits on every input. Any
// NaN matches any NaN: which NaN payload survives an addition of two is
// the hardware's choice, not the order's.

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// values decodes count float64s from data, eight little-endian bytes
// each, cycling through data; fewer than eight bytes give zeros.
func values(data []byte, count int) []float64 {
	v := make([]float64, count)
	if len(data) < 8 {
		return v
	}
	words := len(data) / 8
	for i := range v {
		w := i % words
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*w:]))
	}
	return v
}

// specials are the values whose arithmetic is easiest to get wrong.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
	5e-324, -5e-324, 0x1p-1022, -0x1.fffffffffffffp-1023, math.MaxFloat64, 1,
}

// seedData returns the bytes of count values: uniform in [-1, 1) with
// every fourth one, when withSpecials is set, taken from specials.
func seedData(rng *rand.Rand, count int, withSpecials bool) []byte {
	data := make([]byte, 8*count)
	for i := 0; i < count; i++ {
		v := 2*rng.Float64() - 1
		if withSpecials && i%4 == 3 {
			v = specials[rng.Intn(len(specials))]
		}
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
	}
	return data
}

var (
	seedCols = []int{0, 1, 3, 4, 5, 7, 8, 31, 32, 63, 64, 224}
	seedRows = []int{1, 2, 3, 5, 6, 7, 9, 13, 16, 17, 18, 33, 48}
)

func FuzzPanelDotsMatchesGoForm(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range seedCols {
		rows := seedRows[i%len(seedRows)]
		f.Add(uint8(n), uint8(rows), uint8(0), seedData(rng, n*(rows+1), false))
		f.Add(uint8(n), uint8(rows+i), uint8(4), seedData(rng, n*(rows+i+1), true))
	}
	f.Fuzz(func(t *testing.T, n8, rows8, lo8 uint8, data []byte) {
		n, rows := int(n8), int(rows8)
		v := values(data, n*(rows+1))
		x := v[:n]
		var p Panel
		for r := 0; r < rows; r++ {
			p.Add(v[n*(r+1) : n*(r+2)])
		}
		if rows == 0 {
			return
		}
		lo := int(lo8) % rows &^ 3
		out := make([]float64, rows-lo)
		p.Dots(x, lo, out)
		for k, got := range out {
			row := v[n*(lo+k+1) : n*(lo+k+2)]
			var want float64
			for i := range x {
				want += x[i] * row[i]
			}
			if !sameBits(got, want) {
				t.Fatalf("n %d rows %d lo %d: row %d: Dots %v (%#x), loop %v (%#x)",
					n, rows, lo, lo+k, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// Every shorter window of the same panel agrees with the full one.
		short := make([]float64, len(out)/2)
		p.Dots(x, lo, short)
		for k, got := range short {
			if !sameBits(got, out[k]) {
				t.Fatalf("n %d rows %d lo %d: %d-row window row %d: %v, full %v", n, rows, lo, len(short), lo+k, got, out[k])
			}
		}
	})
}

func FuzzAddProducts4MatchesGoForm(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range seedCols {
		f.Add(uint8(n), seedData(rng, 5*n+4, false))
		f.Add(uint8(n), seedData(rng, 5*n+4, true))
	}
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte) {
		n := int(n8)
		v := values(data, 5*n+4)
		a := [4]float64(v[:4])
		f0, f1, f2, f3 := v[4+n:4+2*n], v[4+2*n:4+3*n], v[4+3*n:4+4*n], v[4+4*n:]
		got := append([]float64(nil), v[4:4+n]...)
		want := append([]float64(nil), got...)
		AddProducts4(got, a, f0, f1, f2, f3)
		addProducts4Go(want, a, f0, f1, f2, f3)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("n %d: entry %d: %v (%#x), Go form %v (%#x)",
					n, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	})
}

// TestSumOrderIsObservable makes sure the exactness tests can fail: on
// these operands the left-to-right sum and a pairwise one differ, and
// the primitives give the left-to-right one, in every lane of the pair
// dots too.
func TestSumOrderIsObservable(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	row := []float64{1, 0x1p-53, 0x1p-53, 0x1p-53}
	pairwise := (x[0]*row[0] + x[1]*row[1]) + (x[2]*row[2] + x[3]*row[3])
	var p Panel
	p.Add(row)
	out := make([]float64, 1)
	p.Dots(x, 0, out)
	if out[0] != 1 || pairwise == 1 {
		t.Fatalf("Dots %v, pairwise %v: want 1 and a pairwise sum above 1", out[0], pairwise)
	}
	dst := []float64{1}
	tiny := []float64{0x1p-53}
	AddProducts4(dst, [4]float64{1, 1, 1, 1}, tiny, tiny, tiny, tiny)
	if dst[0] != 1 {
		t.Fatalf("AddProducts4 %v, want 1", dst[0])
	}
	// Five bands: a block of four and a tail band.
	ones := []float32{1, 1, 1, 1, 1}
	row32 := []float32{0x1p30, 0x1p-24, 0x1p-24, 0x1p-24, 0x1p-24}
	smallFirst := ((float64(row32[1]) + float64(row32[2])) + (float64(row32[3]) + float64(row32[4]))) + float64(row32[0])
	_, dots := Dot4(ones, row32, row32, row32, row32)
	a, b := [4][]float32{row32, row32, row32, row32}, [4][]float32{ones, ones, ones, ones}
	pairs := DotPairs(&a, &b)
	for i := range dots {
		if dots[i] != 0x1p30 || pairs[i] != 0x1p30 || smallFirst == 0x1p30 {
			t.Fatalf("lane %d: Dot4 %v, DotPairs %v, small products first %v: want 2^30 and a sum above it",
				i, dots[i], pairs[i], smallFirst)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	three, four, four32 := make([]float64, 3), make([]float64, 4), make([]float32, 4)
	var p Panel
	for i := 0; i < 5; i++ {
		p.Add(four)
	}
	for name, call := range map[string]func(){
		"Add":             func() { p.Add(three) },
		"Dots x":          func() { p.Dots(three, 0, four) },
		"Dots lo odd":     func() { p.Dots(four, 2, three) },
		"Dots lo < 0":     func() { p.Dots(four, -4, three) },
		"Dots out long":   func() { p.Dots(four, 4, make([]float64, 2)) },
		"Dots lo beyond":  func() { p.Dots(four, 8, nil) },
		"AddProducts4 f0": func() { AddProducts4(four, [4]float64{}, three, four, four, four) },
		"AddProducts4 f1": func() { AddProducts4(four, [4]float64{}, four, three, four, four) },
		"AddProducts4 f2": func() { AddProducts4(four, [4]float64{}, four, four, three, four) },
		"AddProducts4 f3": func() { AddProducts4(four, [4]float64{}, four, four, four, make([]float64, 5)) },
		"Dot4 d":          func() { Dot4(four32, four32, four32, four32, four32[:3]) },
		"DotPairs b3": func() {
			a, b := [4][]float32{four32, four32, four32, four32}, [4][]float32{four32, four32, four32, four32[:3]}
			DotPairs(&a, &b)
		},
		"Angles nb": func() { Angles(four, four, four, three) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestDotsAllocatesNothing(t *testing.T) {
	var p Panel
	row := make([]float64, 64)
	for i := 0; i < 18; i++ {
		p.Add(row)
	}
	var out [16]float64
	if n := testing.AllocsPerRun(100, func() {
		p.Dots(row, 16, out[:2])
		p.Dots(row, 0, out[:])
	}); n != 0 {
		t.Fatalf("Dots allocates %v times per call pair", n)
	}
}

// PackRows lays rows out as Add does, in storage reserved up front.
func TestPackRowsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range seedRows {
		for _, cols := range []int{1, 3, 8, 13} {
			data := make([]float64, rows*cols)
			for i := range data {
				data[i] = rng.Float64()
			}
			var want Panel
			for r := 0; r < rows; r++ {
				want.Add(data[r*cols : (r+1)*cols])
			}
			got := PackRows(cols, data)
			if got.cols != want.cols || got.rows != want.rows || !slices.Equal(got.data, want.data) {
				t.Fatalf("%dx%d: PackRows %+v, Add %+v", rows, cols, *got, want)
			}
			if cap(got.data) != len(got.data) {
				t.Fatalf("%dx%d: PackRows holds %d of %d reserved values", rows, cols, len(got.data), cap(got.data))
			}
		}
	}
}
