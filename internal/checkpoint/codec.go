package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk snapshot frame, little-endian throughout:
//
//	magic   [4]byte  "HHCP"
//	version uint16   codec version (currently 1)
//	algLen  uint16   length of the algorithm name
//	round   uint32   completed round boundary
//	payLen  uint32   payload length
//	alg     [algLen]byte
//	payload [payLen]byte
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// The trailing checksum covers the header too, so a torn write anywhere in
// the frame — not just in the payload — reads back as corrupt.

var (
	// ErrCorrupt reports a snapshot frame that fails structural or
	// checksum validation: truncated, torn, or bit-rotted.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a snapshot written by an unknown codec version;
	// the frame may be valid but this build cannot interpret it.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
)

const (
	codecVersion = 1
	headerLen    = 4 + 2 + 2 + 4 + 4 // magic, version, algLen, round, payLen
	crcLen       = 4
	// maxPayload bounds a decoded payload allocation: master round state
	// is signatures and small matrices, far below this, so anything larger
	// is a corrupt length field, not data.
	maxPayload = 1 << 30
)

var magic = [4]byte{'H', 'H', 'C', 'P'}

// Encode renders the snapshot as a self-checking binary frame.
func Encode(s Snapshot) []byte {
	buf := make([]byte, 0, headerLen+len(s.Algorithm)+len(s.Payload)+crcLen)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Algorithm)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Payload)))
	buf = append(buf, s.Algorithm...)
	buf = append(buf, s.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// Decode parses a frame produced by Encode. It returns ErrCorrupt for
// truncated or checksum-failing frames and ErrVersion for frames from an
// unknown codec version; both wrap the detail.
func Decode(b []byte) (Snapshot, error) {
	if len(b) < headerLen+crcLen {
		return Snapshot{}, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(b), headerLen+crcLen)
	}
	if [4]byte(b[:4]) != magic {
		return Snapshot{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	version := binary.LittleEndian.Uint16(b[4:6])
	algLen := int(binary.LittleEndian.Uint16(b[6:8]))
	round := binary.LittleEndian.Uint32(b[8:12])
	payLen := binary.LittleEndian.Uint32(b[12:16])
	if payLen > maxPayload {
		return Snapshot{}, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, payLen)
	}
	// A round above MaxInt32 fits no int on a 32-bit platform, and no
	// run has that many rounds.
	if round > math.MaxInt32 {
		return Snapshot{}, fmt.Errorf("%w: round %d exceeds limit", ErrCorrupt, round)
	}
	total := headerLen + algLen + int(payLen) + crcLen
	if len(b) != total {
		return Snapshot{}, fmt.Errorf("%w: frame is %d bytes, header describes %d", ErrCorrupt, len(b), total)
	}
	body := b[:total-crcLen]
	want := binary.LittleEndian.Uint32(b[total-crcLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Snapshot{}, fmt.Errorf("%w: crc mismatch (got %08x, frame says %08x)", ErrCorrupt, got, want)
	}
	// Checksum first, version second: a frame that fails the CRC is
	// corrupt regardless of what its version field happens to say.
	if version != codecVersion {
		return Snapshot{}, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, version, codecVersion)
	}
	s := Snapshot{
		Algorithm: string(b[headerLen : headerLen+algLen]),
		Round:     int(round),
		Payload:   append([]byte(nil), b[headerLen+algLen:total-crcLen]...),
	}
	return s, nil
}
