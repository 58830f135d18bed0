package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// MemStore keeps the latest snapshot in memory, for a caller that reruns
// a computation within one process. The zero value is ready to use.
type MemStore struct {
	mu     sync.Mutex
	latest Snapshot
	ok     bool
}

// Save records s, replacing any previous snapshot. The payload is copied
// so callers may reuse their buffers.
func (m *MemStore) Save(s Snapshot) error {
	s.Payload = append([]byte(nil), s.Payload...)
	m.mu.Lock()
	m.latest, m.ok = s, true
	m.mu.Unlock()
	return nil
}

// Latest returns the most recent snapshot.
func (m *MemStore) Latest() (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest, m.ok
}

// FileStore persists the latest snapshot to a directory through the
// versioned, checksummed codec, surviving process restarts. Saves are
// atomic (write-temp, fsync, rename), so a crash mid-save leaves the
// previous snapshot intact; a corrupt or missing file reads as "no
// checkpoint".
type FileStore struct {
	mu  sync.Mutex
	dir string
}

// latestName is the snapshot file within the store directory.
const latestName = "latest.ckpt"

// NewFileStore creates the directory (if needed) and returns a store over
// it.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating store dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Save atomically replaces the on-disk snapshot with s.
func (fs *FileStore) Save(s Snapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	frame := Encode(s)
	tmp, err := os.CreateTemp(fs.dir, latestName+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(frame); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(fs.dir, latestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: publishing snapshot: %w", err)
	}
	return nil
}

// Latest reads the on-disk snapshot. A missing, truncated, corrupt or
// version-incompatible file reports ok=false — resume falls back to round
// zero rather than trusting damaged state.
func (fs *FileStore) Latest() (Snapshot, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, err := os.ReadFile(filepath.Join(fs.dir, latestName))
	if err != nil {
		return Snapshot{}, false
	}
	s, err := Decode(b)
	if err != nil {
		return Snapshot{}, false
	}
	return s, true
}
