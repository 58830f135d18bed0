package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []Snapshot{
		{Algorithm: "ATDCA", Round: 7, Payload: []byte("seven targets of state")},
		{Algorithm: "PCT", Round: 1, Payload: nil},
		{Algorithm: "", Round: 0, Payload: []byte{}},
		{Algorithm: "MORPH", Round: 1 << 20, Payload: make([]byte, 4096)},
	}
	for _, want := range cases {
		got, err := Decode(Encode(want))
		if err != nil {
			t.Fatalf("decode(%q round %d): %v", want.Algorithm, want.Round, err)
		}
		if got.Algorithm != want.Algorithm || got.Round != want.Round {
			t.Fatalf("round-trip = %+v, want %+v", got, want)
		}
		if string(got.Payload) != string(want.Payload) {
			t.Fatalf("payload round-trip mismatch for %q", want.Algorithm)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame := Encode(Snapshot{Algorithm: "UFCLS", Round: 3, Payload: []byte("abcdefgh")})

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, headerLen - 1, len(frame) - 1} {
			if _, err := Decode(frame[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		for _, i := range []int{0, 5, headerLen + 2, len(frame) - 1} {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("flipping byte %d decoded cleanly", i)
			}
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		// A structurally valid frame from a future codec: bump the version
		// and rewrite the trailing checksum so only the version is wrong.
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint16(bad[4:6], 99)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("future version: err = %v, want ErrVersion", err)
		}
	})
	t.Run("hostile payload length", func(t *testing.T) {
		for _, n := range []uint32{1<<31 - 1, 1<<32 - 20} {
			bad := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(bad[12:16], n)
			reseal(bad)
			if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload length %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("round above MaxInt32", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(bad[8:12], 1<<31)
		reseal(bad)
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("round 2^31: err = %v, want ErrCorrupt", err)
		}
	})
}

func TestMemStore(t *testing.T) {
	var m MemStore
	if _, ok := m.Latest(); ok {
		t.Fatal("empty store reports a snapshot")
	}
	payload := []byte{1, 2, 3}
	if err := m.Save(Snapshot{Algorithm: "ATDCA", Round: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99 // the store must have copied
	s, ok := m.Latest()
	if !ok || s.Round != 1 || s.Payload[0] != 1 {
		t.Fatalf("Latest = %+v ok=%v, want round 1 with original payload", s, ok)
	}
	m.Save(Snapshot{Algorithm: "ATDCA", Round: 2})
	if s, _ := m.Latest(); s.Round != 2 {
		t.Fatalf("Latest.Round = %d after second save, want 2", s.Round)
	}
}

func TestFileStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Latest(); ok {
		t.Fatal("fresh store reports a snapshot")
	}
	want := Snapshot{Algorithm: "UFCLS", Round: 12, Payload: []byte("state")}
	if err := fs.Save(want); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.Latest()
	if !ok || got.Round != want.Round || string(got.Payload) != "state" {
		t.Fatalf("reopened Latest = %+v ok=%v, want %+v", got, ok, want)
	}
}

func TestFileStoreTreatsCorruptionAsAbsent(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(Snapshot{Algorithm: "PCT", Round: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, latestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: the file lost its final bytes in a crash.
	if err := os.WriteFile(path, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Latest(); ok {
		t.Fatal("torn snapshot file reported as valid")
	}
	// Garbage file.
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Latest(); ok {
		t.Fatal("garbage snapshot file reported as valid")
	}
}

func TestCostModelMonotonic(t *testing.T) {
	if SaveCost(0) <= 0 || RestoreCost(0) <= 0 {
		t.Fatal("zero-byte checkpoint I/O must still cost latency")
	}
	if SaveCost(1<<20) <= SaveCost(0) {
		t.Fatal("SaveCost must grow with size")
	}
	if RestoreCost(1<<20) <= RestoreCost(0) {
		t.Fatal("RestoreCost must grow with size")
	}
}
