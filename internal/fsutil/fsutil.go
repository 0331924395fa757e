// Package fsutil holds the on-disk machinery of the repo's three
// content-addressed stores (results, policies, the trace cache) and the
// serve job journal: atomic temp-file writes that never leave partial
// files behind, reclamation of orphaned temp files, filesystem-safe name
// mangling, and Store, the core each of the three stores embeds.
package fsutil

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pythia/internal/fault"
)

// FPWriteAtomic is the failpoint between the write callback and sync —
// the worst possible moment for a write to die; fault-injection tests
// arm it to prove no failure leaves a partial file behind.
const FPWriteAtomic = "fsutil.write-atomic"

// WriteAtomic lands a file at path by streaming through write into a
// unique temp file in dir (created if missing), syncing, and atomically
// renaming into place — so readers never observe partial content and
// concurrent processes are safe (both write, either rename wins). Every
// error path removes the temp file; fault-injection tests (the
// FPWriteAtomic failpoint) hold that no failure leaves anything behind.
//
// Infrastructure failures (mkdir, temp creation, sync, rename) are
// marked fault.Transient — they are I/O pressure, not bad input, and
// retrying the whole write is sound because it lands atomically. The
// write callback's own error passes through unclassified: its meaning
// (a canceled context, a corrupt source) belongs to the caller.
func WriteAtomic(dir, path string, write func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fault.Transient(fmt.Errorf("dir %s: %w", dir, err))
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fault.Transient(fmt.Errorf("temp for %s: %w", path, err))
	}
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("%s %s: %w", step, path, err)
	}
	if err := write(tmp); err != nil {
		return fail("write", err)
	}
	if err := fault.Hit(FPWriteAtomic); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fault.Transient(fail("sync", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fault.Transient(fmt.Errorf("close %s: %w", path, err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fault.Transient(fmt.Errorf("rename %s: %w", path, err))
	}
	return nil
}

// WriteJSON returns a WriteAtomic callback that writes v as two-space
// indented JSON and a newline, the layout of every JSON entry the stores
// and the job journal keep.
func WriteJSON(v any) func(*os.File) error {
	return func(f *os.File) error {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = f.Write(append(buf, '\n'))
		return fault.Transient(err)
	}
}

// StaleTempAge is how old an orphaned temp file must be before
// SweepStaleTemps reclaims it; generous enough that a live writer on the
// slowest machine is never raced.
const StaleTempAge = time.Hour

// SweepStaleTemps removes temp files abandoned by crashed processes from
// dir. In-flight writers are protected by the age threshold: a temp file
// still being written is always younger than StaleTempAge.
func SweepStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if time.Since(info.ModTime()) > StaleTempAge {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Sanitize makes a name filesystem-safe for use as a cache file name.
func Sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ', '|', '*', '?', '"', '<', '>':
			return '_'
		}
		return r
	}, name)
}
