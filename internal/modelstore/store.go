package modelstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ml"
)

// fileExt suffixes every model file ("performance-variability model").
const fileExt = ".pvm"

// tmpPattern names the temp files writeFileAtomic renames into place.
const tmpPattern = ".pvm-tmp-*"

// Store is a directory of content-addressed model files. Writes are
// atomic (temp file + rename in the same directory), so concurrent
// processes sharing a store directory — the fleet scale-out case —
// never observe partial files; at worst they race to write identical
// bytes under the same content address.
type Store struct {
	dir string
}

// Open creates the directory if needed, removes temp files orphaned by
// a crash between an earlier write and its rename, and returns the
// store. A process sharing the directory that is mid-write when another
// opens it loses that write to the sweep; its rename fails, Save
// reports the error, and the model is refitted on a later miss.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: open: %w", err)
	}
	orphans, err := filepath.Glob(filepath.Join(dir, tmpPattern))
	if err != nil {
		return nil, fmt.Errorf("modelstore: open: %w", err)
	}
	for _, tmp := range orphans {
		if err := os.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("modelstore: open: sweep: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// path validates the key (content addresses are lower-hex, which also
// rules out path traversal) and returns the file path.
func (s *Store) path(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("modelstore: empty key")
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("modelstore: malformed key %q", key)
		}
	}
	return filepath.Join(s.dir, key+fileExt), nil
}

// Save encodes the model and writes it atomically under key.
func (s *Store) Save(key string, reg ml.Regressor, fingerprint uint64) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	data, err := Encode(reg, fingerprint)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("modelstore: save %s: %w", key, err)
	}
	return nil
}

// Load reads and decodes the model under key. A missing file returns
// ErrNotFound; a damaged or incompatible one returns the format's typed
// error; a fingerprint disagreeing with want (when want is nonzero)
// returns ErrFingerprint. All of them mean "refit".
func (s *Store) Load(key string, want uint64) (ml.Regressor, error) {
	path, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("modelstore: load %s: %w", key, err)
	}
	reg, h, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", key, err)
	}
	if want != 0 && h.Fingerprint != want {
		return nil, fmt.Errorf("%w: file trained on %016x, data is %016x", ErrFingerprint, h.Fingerprint, want)
	}
	return reg, nil
}

// Delete removes the file under key (no error when absent).
func (s *Store) Delete(key string) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("modelstore: delete %s: %w", key, err)
	}
	return nil
}

// Keys lists the stored content addresses, sorted.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("modelstore: list: %w", err)
	}
	var keys []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, fileExt) && !e.IsDir() {
			keys = append(keys, strings.TrimSuffix(name, fileExt))
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// writeFileAtomic writes data via a temp file in the destination's
// directory, fsyncs it, renames it over path and fsyncs the directory,
// so a reader never observes a partial file and a crash leaves either
// the old version or the new one (plus, at worst, an orphaned temp file
// that Open sweeps). This helper is the repo's one sanctioned call site
// for os.Rename/os.Remove (the pathpolicy analyzer flags them anywhere
// outside this package).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
