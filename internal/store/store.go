// Package store is the shared durable model store of a pawsd fleet: a
// directory of content-addressed model artifacts plus one index file, so N
// stateless replicas can serve the same registry without sharing a process.
//
// Layout:
//
//	<dir>/<sha256>.pawsmodl — one immutable model blob per content hash
//	                          (the versioned PAWSMODL encoding; identical
//	                          models encode to identical bytes, so the file
//	                          name IS the artifact identity)
//	<dir>/index.json        — name → {hash, kind, park, generation, …}
//	<dir>/index.lock        — flock serializing read-modify-write publishes
//
// Blobs are written once under a temporary name and atomically renamed into
// place; a hash that already exists is never rewritten. The index is also
// replaced by atomic rename, so a reader can never observe a torn index —
// it sees either the old mapping or the new one. Publishes from concurrent
// processes are serialized by an advisory flock on index.lock; each publish
// bumps the per-name generation, so concurrent writers of the same name
// resolve last-writer-wins by generation and every intermediate state is a
// valid index.
//
// Readers are poll-based: Stat is a cheap mtime/size probe and Load decodes
// the full index, which is how pawsd replicas notice models published by
// their peers (paws.StoreSyncer).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// IndexVersion is the schema version written into index.json; readers
// reject newer versions so format evolution fails loudly.
const IndexVersion = 1

// indexName and lockName are the fixed file names inside a store directory.
const (
	indexName = "index.json"
	lockName  = "index.lock"
)

// ErrUnknownName is returned by Lookup for names absent from the index.
var ErrUnknownName = errors.New("store: unknown model name")

// Entry is one published model: the content hash of its artifact plus the
// metadata a replica needs to rebuild the model's serving context
// deterministically (park spec, scale and seed regenerate the same feature
// rasters everywhere).
type Entry struct {
	// Name is the registry name replicas serve the model under.
	Name string `json:"name"`
	// Hash is the sha256 (hex) of the PAWSMODL blob; the artifact lives at
	// <dir>/<hash>.pawsmodl.
	Hash string `json:"hash"`
	// Kind is the model kind string ("DTB-iW", …) — informational.
	Kind string `json:"kind"`
	// Park, Scale and Seed identify the serving context: regenerating the
	// park scenario from them yields the exact feature vectors the model
	// was trained against.
	Park  string `json:"park"`
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// Generation is the per-name publish counter, assigned by the store
	// under the publish lock. Replicas re-register a name whenever the
	// generation they serve falls behind; concurrent publishers of one name
	// resolve last-writer-wins by generation.
	Generation uint64 `json:"generation"`
}

// Index is the decoded index.json: the full name → entry mapping.
type Index struct {
	Version int              `json:"version"`
	Models  map[string]Entry `json:"models"`
}

// Store is a handle on one store directory. It holds no state beyond the
// path; every method goes to disk, so any number of handles (in any number
// of processes) may share a directory.
type Store struct {
	dir string
}

// Open ensures the directory exists and returns a handle on it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// HashBytes returns the sha256 hex digest used as a blob's identity.
func HashBytes(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// blobPath is the artifact path for a content hash.
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, hash+".pawsmodl")
}

// Publish writes the model blob (if its hash is not already present) and
// updates the index entry for e.Name under the publish lock, assigning the
// next per-name generation. The returned Entry carries the assigned hash
// and generation. e.Hash and e.Generation are ignored on input.
func (s *Store) Publish(e Entry, blob []byte) (Entry, error) {
	if e.Name == "" {
		return Entry{}, errors.New("store: publish needs a model name")
	}
	if len(blob) == 0 {
		return Entry{}, errors.New("store: publish needs a model blob")
	}
	e.Hash = HashBytes(blob)
	if err := s.writeBlob(e.Hash, blob); err != nil {
		return Entry{}, err
	}
	unlock, err := s.lock()
	if err != nil {
		return Entry{}, err
	}
	defer unlock()
	idx, _, err := s.Load()
	if err != nil {
		return Entry{}, err
	}
	e.Generation = idx.Models[e.Name].Generation + 1
	idx.Models[e.Name] = e
	if err := s.writeIndex(idx); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// writeBlob stores a content-addressed artifact: write to a temporary name,
// fsync, atomically rename. An existing blob with the same hash is the same
// bytes by construction and is left untouched.
func (s *Store) writeBlob(hash string, blob []byte) error {
	path := s.blobPath(hash)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, "blob-*.tmp")
	if err != nil {
		return fmt.Errorf("store: write blob: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write blob: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: write blob: %w", err)
	}
	return nil
}

// writeIndex atomically replaces index.json (temp file + rename), so
// readers always parse a complete document.
func (s *Store) writeIndex(idx Index) error {
	idx.Version = IndexVersion
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode index: %w", err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(s.dir, "index-*.tmp")
	if err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	return nil
}

// lock takes the advisory publish lock (blocking) and returns its release.
func (s *Store) lock() (func(), error) {
	f, err := os.OpenFile(filepath.Join(s.dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: lock: %w", err)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// Load reads and decodes the index. A store with no index yet returns an
// empty mapping and the zero time — a valid, empty fleet.
func (s *Store) Load() (Index, time.Time, error) {
	path := filepath.Join(s.dir, indexName)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Index{Version: IndexVersion, Models: map[string]Entry{}}, time.Time{}, nil
	}
	if err != nil {
		return Index{}, time.Time{}, fmt.Errorf("store: read index: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return Index{}, time.Time{}, fmt.Errorf("store: stat index: %w", err)
	}
	var idx Index
	if err := json.Unmarshal(b, &idx); err != nil {
		return Index{}, time.Time{}, fmt.Errorf("store: decode index: %w", err)
	}
	if idx.Version > IndexVersion {
		return Index{}, time.Time{}, fmt.Errorf("store: index has schema version %d; this build reads up to %d", idx.Version, IndexVersion)
	}
	if idx.Models == nil {
		idx.Models = map[string]Entry{}
	}
	return idx, fi.ModTime(), nil
}

// Stat is the cheap change probe replicas poll: the index mtime and size
// (zero values when no index exists yet). A reload is warranted whenever
// either differs from the last observation.
func (s *Store) Stat() (mtime time.Time, size int64, err error) {
	fi, err := os.Stat(filepath.Join(s.dir, indexName))
	if errors.Is(err, fs.ErrNotExist) {
		return time.Time{}, 0, nil
	}
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("store: stat index: %w", err)
	}
	return fi.ModTime(), fi.Size(), nil
}

// Lookup returns the index entry for one name.
func (s *Store) Lookup(name string) (Entry, error) {
	idx, _, err := s.Load()
	if err != nil {
		return Entry{}, err
	}
	e, ok := idx.Models[name]
	if !ok {
		return Entry{}, fmt.Errorf("%w %q", ErrUnknownName, name)
	}
	return e, nil
}

// Get reads the artifact blob for a content hash.
func (s *Store) Get(hash string) ([]byte, error) {
	b, err := os.ReadFile(s.blobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("store: read blob %s: %w", hash, err)
	}
	if got := HashBytes(b); got != hash {
		return nil, fmt.Errorf("store: blob %s is corrupt (content hashes to %s)", hash, got)
	}
	return b, nil
}
