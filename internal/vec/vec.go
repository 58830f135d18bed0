// Package vec holds the vector primitives behind the exact kernels of
// the hot scans (DESIGN.md "Kernel exactness"): many dot products of one
// vector with the rows of a Panel, a row update that adds four scaled
// rows, and MEI's float32 pair dots and spectral-angle arccosines
// (sad.go). Each output keeps its own accumulator and adds its products
// in index order, as a scalar loop does, so the results are the scalar
// loop's bits. On amd64 with AVX2 (and the OS saving the YMM
// registers) the four accumulators of a block are the four float64 lanes
// of one register, and a pass scans four blocks, sixteen outputs, so
// that four independent add chains hide the add latency. Only VMULPD and
// VADDPD do the dot products' arithmetic (the arccosine adds VSUBPD,
// VDIVPD and VSQRTPD): no FMA, whose single rounding would change the
// bits. The path is chosen once, at start-up; elsewhere, or with the
// purego build tag, the Go forms in this file and sad.go run.
package vec

import (
	"slices"
	"unsafe"
)

// A Panel holds rows of one length packed for Dots: band-major in blocks
// of four rows, so that a block's four values at band i sit side by side.
// Row r of a panel with n columns lives at data[(r/4)*4n + 4i + r%4] for
// band i; the spare rows of the last block are zeros. Add is the one
// writer of this layout. The zero Panel is empty, and its first Add fixes
// the row length; NewPanel fixes it up front.
type Panel struct {
	cols, rows int
	data       []float64
}

// NewPanel returns an empty Panel of rows of cols columns, cols > 0, with
// room for rows rows: that many Adds allocate nothing.
func NewPanel(cols, rows int) *Panel {
	if cols <= 0 || rows < 0 {
		panic("vec: NewPanel shape mismatch")
	}
	return &Panel{cols: cols, data: make([]float64, 0, (rows+3)/4*4*cols)}
}

// PackRows returns a Panel of the rows of data, a row-major matrix with
// cols columns, cols > 0.
func PackRows(cols int, data []float64) *Panel {
	if cols <= 0 || len(data)%cols != 0 {
		panic("vec: PackRows shape mismatch")
	}
	p := NewPanel(cols, len(data)/cols)
	for r := 0; r < len(data); r += cols {
		p.Add(data[r : r+cols])
	}
	return p
}

// Add appends a copy of row.
func (p *Panel) Add(row []float64) {
	if p.rows == 0 && p.cols == 0 {
		p.cols = len(row)
	}
	if len(row) != p.cols {
		panic("vec: Panel.Add length mismatch")
	}
	k := p.rows % 4
	if k == 0 { // a new block of zeros, in reserved room when there is some
		n := len(p.data)
		p.data = slices.Grow(p.data, 4*p.cols)[:n+4*p.cols]
		clear(p.data[n:])
	}
	blk := p.data[len(p.data)-4*p.cols:]
	for i, v := range row {
		blk[4*i+k] = v
	}
	p.rows++
}

// Dots sets out[k] to the dot product of x with row lo+k, for every k,
// each summed left to right over the columns as the loop
//
//	var s float64
//	for i := range x { s += x[i] * row[i] }
//
// sums it. lo must be a multiple of four, and rows lo..lo+len(out)-1 must
// exist.
func (p *Panel) Dots(x []float64, lo int, out []float64) {
	if len(x) != p.cols || lo < 0 || lo%4 != 0 || len(out) > p.rows-lo {
		panic("vec: Panel.Dots length mismatch")
	}
	n := p.cols
	blk := p.data[lo*n:]
	if len(out)%4 == 0 {
		dotBlocks(x, blk[:len(out)*n], out)
		return
	}
	// The last block is partial: the last pass, up to sixteen rows, goes
	// to a buffer in one call, so that it keeps its add chains together.
	head := len(out) &^ 15
	dotBlocks(x, blk[:head*n], out[:head])
	var last [16]float64
	tail := last[:(len(out)-head+3)&^3]
	dotBlocks(x, blk[head*n:(head+len(tail))*n], tail)
	copy(out[head:], tail)
}

// dotBlocks sets out[4b+k] to the dot product of x with lane k of block
// b of p, where len(p) = len(out)*len(x) and len(out) is a multiple of
// four.
func dotBlocks(x, p, out []float64) {
	if len(out)%4 != 0 || len(p) != len(out)*len(x) {
		panic("vec: dotBlocks length mismatch")
	}
	if vector && len(out) > 0 {
		dotBlocksAVX2(unsafe.SliceData(x), len(x), unsafe.SliceData(p), &out[0], len(out)/4)
		return
	}
	dotBlocksGo(x, p, out)
}

// AddProducts4 sets dst[j] = dst[j] + a[0]*f0[j] + a[1]*f1[j] + a[2]*f2[j]
// + a[3]*f3[j] for every j, evaluated left to right. The four rows must
// have dst's length.
func AddProducts4(dst []float64, a [4]float64, f0, f1, f2, f3 []float64) {
	n := len(dst)
	if len(f0) != n || len(f1) != n || len(f2) != n || len(f3) != n {
		panic("vec: AddProducts4 length mismatch")
	}
	if vector && n > 0 {
		addProducts4AVX2(&dst[0], n, &a, &f0[0], &f1[0], &f2[0], &f3[0])
		return
	}
	addProducts4Go(dst, a, f0, f1, f2, f3)
}

// dotBlocksGo is the Go form of dotBlocks.
func dotBlocksGo(x, p, out []float64) {
	n := len(x)
	for b := 0; b < len(out); b += 4 {
		blk := p[b*n : (b+4)*n]
		var s0, s1, s2, s3 float64
		for i, w := range x {
			r := blk[4*i : 4*i+4]
			s0 += w * r[0]
			s1 += w * r[1]
			s2 += w * r[2]
			s3 += w * r[3]
		}
		out[b], out[b+1], out[b+2], out[b+3] = s0, s1, s2, s3
	}
}

// addProducts4Go is the Go form of AddProducts4, on checked lengths.
func addProducts4Go(dst []float64, a [4]float64, f0, f1, f2, f3 []float64) {
	n := len(dst)
	f0, f1, f2, f3 = f0[:n], f1[:n], f2[:n], f3[:n]
	for j := range dst {
		dst[j] = dst[j] + a[0]*f0[j] + a[1]*f1[j] + a[2]*f2[j] + a[3]*f3[j]
	}
}
