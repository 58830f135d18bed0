package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// reseal recomputes a frame's trailing CRC after a deliberate mutation.
func reseal(b []byte) {
	body := b[:len(b)-crcLen]
	binary.LittleEndian.PutUint32(b[len(b)-crcLen:], crc32.ChecksumIEEE(body))
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot codec. The
// invariants: Decode never panics and never over-allocates past its
// declared bounds; any frame it accepts round-trips through Encode back
// to the identical bytes (the journal's durability contract); and every
// rejection is one of the two declared error classes. Seeds cover the
// paths a torn journal produces: valid frames, truncations at every
// structural boundary, flipped CRC bytes and alien versions.
func FuzzSnapshotDecode(f *testing.F) {
	valid := Encode(Snapshot{Algorithm: "ATDCA", Round: 3, Payload: []byte("round-state")})
	f.Add(valid)
	f.Add(Encode(Snapshot{}))
	f.Add(Encode(Snapshot{Algorithm: "MORPH", Round: 1<<31 - 1, Payload: bytes.Repeat([]byte{0xA5}, 257)}))
	f.Add(valid[:4])                      // magic only
	f.Add(valid[:headerLen])              // header, no payload or CRC
	f.Add(valid[:len(valid)-1])           // torn CRC
	f.Add([]byte{})                       // empty
	f.Add([]byte("HHWJ\x01\x00\x00\x00")) // journal header, wrong magic
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF // CRC flip
	f.Add(corrupt)
	// Alien version with a recomputed CRC: reaches the ErrVersion path
	// instead of dying at the checksum.
	alien := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(alien[4:6], 999)
	reseal(alien)
	f.Add(alien)
	// Payload length past maxPayload, CRC resealed so only the bound
	// check can reject it.
	big := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(big[12:16], 1<<31-1)
	reseal(big)
	f.Add(big)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode returned an undeclared error class: %v", err)
			}
			return
		}
		// Accepted frames must round-trip byte for byte: the journal
		// replays exactly what was appended, nothing else.
		if got := Encode(s); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame does not round-trip:\n in:  %x\n out: %x", b, got)
		}
		if len(s.Payload) > maxPayload {
			t.Fatalf("decoded payload of %d bytes exceeds maxPayload", len(s.Payload))
		}
	})
}
