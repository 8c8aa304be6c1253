package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// manifestName is the store's index file inside the directory.
const manifestName = "MANIFEST.json"

// manifestVersion versions the manifest's own JSON layout, which is
// independent of the snapshot FormatVersion: a store a version 1 build
// wrote opens as is.
const manifestVersion = 1

// ErrNoSnapshot is returned by LoadLatest and Load when the store holds
// no (usable) snapshot: an empty or never-written directory, or a
// manifest whose every entry failed verification.
var ErrNoSnapshot = errors.New("checkpoint: no usable snapshot in store")

// CorruptSnapshotError describes one snapshot file that failed
// verification (missing, size or CRC mismatch, undecodable). LoadLatest
// skips past corrupt entries to the previous good one; the error is
// surfaced only when nothing good remains (wrapped around
// ErrNoSnapshot) or through Load of a specific round.
type CorruptSnapshotError struct {
	File   string
	Round  int
	Reason string
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("checkpoint: snapshot %s (round %d) corrupt: %s", e.File, e.Round, e.Reason)
}

// manifest is the JSON index of the store directory: the entries on
// disk, oldest first. It is rewritten atomically after every save so a
// crash between the snapshot rename and the manifest rename leaves at
// worst an unlisted (orphaned) snapshot file, never a listed-but-
// missing one.
type manifest struct {
	Version int             `json:"version"`
	Entries []manifestEntry `json:"entries"`
}

// manifestEntry describes one snapshot file.
type manifestEntry struct {
	// File is the snapshot's file name within the store directory.
	File string `json:"file"`
	// Round is the number of rounds completed at capture time.
	Round int `json:"round"`
	// CRC32 is the IEEE checksum of the encoded snapshot bytes.
	CRC32 uint32 `json:"crc32"`
	// Size is the encoded snapshot length in bytes.
	Size int64 `json:"size"`
}

// Store persists snapshots in one directory with bounded retention.
// Writes are atomic (temp file + fsync + rename); reads verify the
// manifest checksum and fall back past corrupt snapshots to the newest
// good one. A Store is not safe for concurrent use — it belongs to the
// single-threaded round loop.
type Store struct {
	dir    string
	retain int
	man    manifest
}

// NewStore opens (creating if needed) a snapshot store over dir,
// keeping at most retain snapshots (retain <= 0 keeps 3). An existing
// manifest is loaded so a resumed process appends to the same history.
func NewStore(dir string, retain int) (*Store, error) {
	if retain <= 0 {
		retain = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	s := &Store{dir: dir, retain: retain}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.man = manifest{Version: manifestVersion}
	case err != nil:
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	default:
		if err := json.Unmarshal(data, &s.man); err != nil {
			return nil, fmt.Errorf("checkpoint: parse manifest: %w", err)
		}
		if s.man.Version != manifestVersion {
			return nil, fmt.Errorf("checkpoint: manifest version %d, this build reads %d", s.man.Version, manifestVersion)
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Rounds returns the rounds of the snapshots currently listed, oldest
// first.
func (s *Store) Rounds() []int {
	out := make([]int, len(s.man.Entries))
	for i, e := range s.man.Entries {
		out[i] = e.Round
	}
	return out
}

func snapshotFileName(round int) string { return fmt.Sprintf("snap-%08d.ckpt", round) }

// Save encodes and durably persists the snapshot, updates the manifest,
// and enforces retention by deleting the oldest snapshots. It returns
// the encoded snapshot size in bytes. Saving the same round twice
// overwrites the earlier snapshot in place.
func (s *Store) Save(snap *Snapshot) (int, error) {
	data, err := snap.Encode()
	if err != nil {
		return 0, err
	}
	name := snapshotFileName(snap.Round)
	if err := s.writeAtomic(name, data); err != nil {
		return 0, err
	}
	entry := manifestEntry{File: name, Round: snap.Round, CRC32: crc32.ChecksumIEEE(data), Size: int64(len(data))}
	kept := s.man.Entries[:0]
	for _, e := range s.man.Entries {
		if e.File != name {
			kept = append(kept, e)
		}
	}
	s.man.Entries = append(kept, entry)
	for len(s.man.Entries) > s.retain {
		old := s.man.Entries[0]
		s.man.Entries = s.man.Entries[1:]
		// Best-effort: a stale snapshot file that survives deletion is
		// merely orphaned, never served (reads go through the manifest).
		os.Remove(filepath.Join(s.dir, old.File))
	}
	if err := s.writeManifest(); err != nil {
		return 0, err
	}
	return len(data), nil
}

// writeAtomic lands data at name via temp file + fsync + rename, so a
// crash mid-write can never leave a half-written file under the final
// name.
func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename %s: %w", name, err)
	}
	return nil
}

func (s *Store) writeManifest() error {
	data, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	return s.writeAtomic(manifestName, append(data, '\n'))
}

// load reads and verifies one listed snapshot.
func (s *Store) load(e manifestEntry) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, &CorruptSnapshotError{File: e.File, Round: e.Round, Reason: err.Error()}
	}
	if int64(len(data)) != e.Size {
		return nil, &CorruptSnapshotError{File: e.File, Round: e.Round, Reason: fmt.Sprintf("size %d, manifest says %d", len(data), e.Size)}
	}
	if sum := crc32.ChecksumIEEE(data); sum != e.CRC32 {
		return nil, &CorruptSnapshotError{File: e.File, Round: e.Round, Reason: fmt.Sprintf("CRC32 %08x, manifest says %08x", sum, e.CRC32)}
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, &CorruptSnapshotError{File: e.File, Round: e.Round, Reason: err.Error()}
	}
	return snap, nil
}

// LoadLatest returns the newest snapshot that verifies, skipping past
// corrupt or missing entries to the previous good one. It returns
// ErrNoSnapshot (possibly wrapping the last corruption seen) when
// nothing usable remains.
func (s *Store) LoadLatest() (*Snapshot, error) {
	var lastErr error
	for i := len(s.man.Entries) - 1; i >= 0; i-- {
		snap, err := s.load(s.man.Entries[i])
		if err == nil {
			return snap, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w (last failure: %v)", ErrNoSnapshot, lastErr)
	}
	return nil, ErrNoSnapshot
}

// Load returns the verified snapshot taken after the given round, or
// ErrNoSnapshot if none is listed (a *CorruptSnapshotError if listed
// but damaged).
func (s *Store) Load(round int) (*Snapshot, error) {
	for i := len(s.man.Entries) - 1; i >= 0; i-- {
		if s.man.Entries[i].Round == round {
			return s.load(s.man.Entries[i])
		}
	}
	return nil, fmt.Errorf("%w: no snapshot for round %d", ErrNoSnapshot, round)
}
