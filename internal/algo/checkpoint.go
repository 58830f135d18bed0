package algo

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// This file is the algorithms' side of package checkpoint: the per-
// algorithm payload codecs and the one round-boundary protocol, resume
// and save, that every algorithm restores and snapshots through.
// Checkpointing is entirely opt-in — with a nil Checkpointer every
// algorithm runs the exact original protocol, message for message — and
// entirely master-side: workers never touch the store, they only learn the
// resume round through one extra broadcast so all ranks execute the same
// remaining rounds.

// Algorithm names stamped into snapshots; a resume ignores snapshots from
// a different algorithm.
const (
	ckptATDCA = "ATDCA"
	ckptUFCLS = "UFCLS"
	ckptPCT   = "PCT"
	ckptMORPH = "MORPH"
)

// resume is collective: the root restores the state of the store's latest
// snapshot if it is alg's and decode accepts its payload, charging the
// read on its clock, and one broadcast gives every rank the round the run
// resumes after (0: none, start from scratch). decode returns the state,
// its round and whether the payload fits this run. Without a checkpointer
// it returns at once, with no message and no charge.
func resume[T any](c *mpi.Comm, ck checkpoint.Checkpointer, alg string, decode func([]byte) (T, int, bool)) (T, int) {
	var state T
	if ck == nil {
		return state, 0
	}
	round := 0
	if c.Root() {
		if snap, ok := ck.Latest(); ok && snap.Algorithm == alg {
			if s, r, ok := decode(snap.Payload); ok {
				state, round = s, r
				c.Checkpoint(len(snap.Payload), checkpoint.RestoreCost(len(snap.Payload)))
				if rr, ok := ck.(resumeRecorder); ok {
					rr.Resumed(r)
				}
			}
		}
	}
	return state, c.Bcast(0, tagResume, round, 8).(int)
}

// A resumeRecorder is a Checkpointer told the round a run resumes after.
// That can be below the round of the snapshot Latest handed out: a
// detector clamps a larger run's target list to its own t.
type resumeRecorder interface{ Resumed(round int) }

// save snapshots alg's state after round and charges the write on the
// master's clock. Root only; without a checkpointer it encodes nothing.
func save(c *mpi.Comm, ck checkpoint.Checkpointer, alg string, round int, encode func() []byte) error {
	if ck == nil {
		return nil
	}
	payload := encode()
	if err := ck.Save(checkpoint.Snapshot{Algorithm: alg, Round: round, Payload: payload}); err != nil {
		return fmt.Errorf("algo: checkpointing %s round %d: %w", alg, round, err)
	}
	c.Checkpoint(len(payload), checkpoint.SaveCost(len(payload)))
	return nil
}

// Payload codecs. Little-endian, length-prefixed throughout; the outer
// checkpoint frame already carries the checksum, so these only need to be
// structurally safe against a frame that passed its CRC but was produced
// by a different run shape.

// enc is an append-only primitive writer.
type enc struct{ b []byte }

func (e *enc) u32(v int)     { e.b = binary.LittleEndian.AppendUint32(e.b, uint32(v)) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) f32s(v []float32) {
	e.u32(len(v))
	for _, x := range v {
		e.b = binary.LittleEndian.AppendUint32(e.b, math.Float32bits(x))
	}
}
func (e *enc) f64s(v []float64) {
	e.u32(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

// dec walks a payload with a saturating error flag so the codecs read as
// straight-line code; any out-of-bounds read marks the whole decode bad.
// Length checks divide the bytes left rather than multiply a decoded
// count, so a hostile count cannot overflow past them.
type dec struct {
	b   []byte
	bad bool
}

// u32 reads a count or coordinate; one above MaxInt32 fits no int on a
// 32-bit platform, so it marks the decode bad everywhere.
func (d *dec) u32() int {
	if d.bad || len(d.b) < 4 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	if v > math.MaxInt32 {
		d.bad = true
		return 0
	}
	return int(v)
}

func (d *dec) f64() float64 {
	if d.bad || len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) f32s() []float32 {
	n := d.u32()
	if d.bad || n > len(d.b)/4 {
		d.bad = true
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.b[4*i:]))
	}
	d.b = d.b[4*n:]
	return out
}

func (d *dec) f64s() []float64 {
	n := d.u32()
	if d.bad || n > len(d.b)/8 {
		d.bad = true
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return out
}

func (d *dec) done() error {
	if d.bad {
		return fmt.Errorf("algo: truncated checkpoint payload")
	}
	if len(d.b) != 0 {
		return fmt.Errorf("algo: %d trailing bytes in checkpoint payload", len(d.b))
	}
	return nil
}

// encodeTargets serializes a detector's target list.
func encodeTargets(targets []Target) []byte {
	var e enc
	e.u32(len(targets))
	for _, tg := range targets {
		e.u32(tg.Line)
		e.u32(tg.Sample)
		e.f64(tg.Score)
		e.f32s(tg.Signature)
	}
	return e.b
}

func decodeTargets(b []byte) ([]Target, error) {
	d := dec{b: b}
	n := d.u32()
	var out []Target
	for i := 0; i < n && !d.bad; i++ {
		tg := Target{Line: d.u32(), Sample: d.u32(), Score: d.f64(), Signature: d.f32s()}
		out = append(out, tg)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// encodePCTState serializes the step-7 broadcast message.
func encodePCTState(msg pctBcastMsg) []byte {
	var e enc
	e.u32(msg.t.Rows)
	e.u32(msg.t.Cols)
	for _, x := range msg.t.Data {
		e.f64(x)
	}
	e.f64s(msg.mean)
	e.u32(len(msg.reduced))
	for _, r := range msg.reduced {
		e.f64s(r)
	}
	e.u32(len(msg.classes))
	for _, cl := range msg.classes {
		e.f32s(cl)
	}
	return e.b
}

func decodePCTState(b []byte) (pctBcastMsg, error) {
	d := dec{b: b}
	rows, cols := d.u32(), d.u32()
	if d.bad || rows < 1 || cols < 1 || rows > len(d.b)/8/cols {
		return pctBcastMsg{}, fmt.Errorf("algo: implausible PCT transform shape %dx%d", rows, cols)
	}
	t := linalg.NewMat(rows, cols)
	for i := range t.Data {
		t.Data[i] = d.f64()
	}
	msg := pctBcastMsg{t: t, mean: d.f64s()}
	nr := d.u32()
	for i := 0; i < nr && !d.bad; i++ {
		msg.reduced = append(msg.reduced, d.f64s())
	}
	nc := d.u32()
	for i := 0; i < nc && !d.bad; i++ {
		msg.classes = append(msg.classes, d.f32s())
	}
	if err := d.done(); err != nil {
		return pctBcastMsg{}, err
	}
	if len(msg.reduced) != len(msg.classes) {
		return pctBcastMsg{}, fmt.Errorf("algo: PCT snapshot has %d reduced vectors for %d classes", len(msg.reduced), len(msg.classes))
	}
	for _, r := range msg.reduced {
		if len(r) != rows {
			return pctBcastMsg{}, fmt.Errorf("algo: PCT snapshot reduced vector has %d components, want %d", len(r), rows)
		}
	}
	return msg, nil
}

// encodeSigs serializes a list of spectral signatures.
func encodeSigs(sigs [][]float32) []byte {
	var e enc
	e.u32(len(sigs))
	for _, s := range sigs {
		e.f32s(s)
	}
	return e.b
}

func decodeSigs(b []byte) ([][]float32, error) {
	d := dec{b: b}
	n := d.u32()
	var out [][]float32
	for i := 0; i < n && !d.bad; i++ {
		out = append(out, d.f32s())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}
