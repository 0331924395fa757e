package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"pythia/internal/fault"
	"pythia/internal/flight"
	"pythia/internal/obs"
)

// Counters are one kind of store's pythia_store_{hits,misses,writes}_total
// series. Store packages build theirs at init, so the series appear at
// process start even when no store of that kind is opened.
type Counters struct{ hits, misses, writes *obs.Counter }

// StoreCounters registers the series labeled store=label.
func StoreCounters(label string) *Counters {
	l := obs.L("store", label)
	return &Counters{
		hits:   obs.GetCounter("pythia_store_hits_total", "Store lookups served from disk.", l),
		misses: obs.GetCounter("pythia_store_misses_total", "Store lookups that found no valid entry.", l),
		writes: obs.GetCounter("pythia_store_writes_total", "Store entries successfully persisted.", l),
	}
}

// Store is the core each content-addressed on-disk store embeds: the
// root directory and entry file extension, hit/miss/write counts, the
// stale-temp sweep, the atomic write path and the deduplicated
// get-or-fill, whose flights deliver a V. Each store keeps its own
// key-to-name mapping, validation and codec.
type Store[V any] struct {
	dir, ext             string
	ctrs                 *Counters
	failpoint            string
	sweepOnce            sync.Once
	flight               flight.Group[V]
	hits, misses, writes atomic.Int64
}

// NewStore returns a core rooted at dir (created on first write) whose
// entry files end in ext and which counts into ctrs. Chaos tests arm
// failpoint to fail this store's writes alone.
func NewStore[V any](dir, ext string, ctrs *Counters, failpoint string) *Store[V] {
	return &Store[V]{dir: dir, ext: ext, ctrs: ctrs, failpoint: failpoint}
}

// DefaultDir returns the directory a store uses when none is configured:
// the envVar environment variable, or base under the OS temp directory.
func DefaultDir(envVar, base string) string {
	if dir := os.Getenv(envVar); dir != "" {
		return dir
	}
	return filepath.Join(os.TempDir(), base)
}

// Dir returns the store's root directory.
func (s *Store[V]) Dir() string { return s.dir }

// Path returns the file of the entry called name.
func (s *Store[V]) Path(name string) string { return filepath.Join(s.dir, name+s.ext) }

// Hits returns the number of lookups served from disk.
func (s *Store[V]) Hits() int64 { return s.hits.Load() }

// Misses returns the number of lookups that found no valid entry.
func (s *Store[V]) Misses() int64 { return s.misses.Load() }

// Writes returns the number of entries successfully persisted.
func (s *Store[V]) Writes() int64 { return s.writes.Load() }

// Lookup counts a lookup's outcome in the store and its series together,
// so /metrics and the instance views cannot drift, and returns it.
func (s *Store[V]) Lookup(hit bool) bool {
	if hit {
		s.hits.Add(1)
		s.ctrs.hits.Inc()
	} else {
		s.misses.Add(1)
		s.ctrs.misses.Inc()
	}
	return hit
}

// Sweep reclaims temp files orphaned by crashed processes, at most once
// per store. Writes sweep first; long-lived services sweep at startup.
func (s *Store[V]) Sweep() {
	s.sweepOnce.Do(func() { SweepStaleTemps(s.dir) })
}

// Write sweeps, checks the store's failpoint, lands path through
// WriteAtomic and counts the write.
func (s *Store[V]) Write(path string, write func(*os.File) error) error {
	s.Sweep()
	if err := fault.Hit(s.failpoint); err != nil {
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := WriteAtomic(s.dir, path, write); err != nil {
		return err
	}
	s.writes.Add(1)
	s.ctrs.writes.Inc()
	return nil
}

// Names lists the entry files on disk without reading them. Temp file
// names end in the temp suffix, so they are never listed.
func (s *Store[V]) Names() []string {
	ents, _ := os.ReadDir(s.dir)
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), s.ext) {
			names = append(names, e.Name())
		}
	}
	return names
}

// Len counts the entry files on disk.
func (s *Store[V]) Len() int { return len(s.Names()) }

// GetOrFill counts look as a hit or a miss and returns its value on a hit.
// On a miss, callers for key share one flight: its leader re-reads the
// disk with load (another flight or process may have landed the entry),
// counting a hit, and otherwise runs fill, which persists the entry and
// may return a value beside a persist error. Waiters get the leader's
// value and error but report hit=false.
func (s *Store[V]) GetOrFill(key string, look, load func() (V, bool), fill func() (V, error)) (v V, hit bool, err error) {
	if v, ok := look(); s.Lookup(ok) {
		return v, true, nil
	}
	v, _, err = s.flight.Do(key, func() (V, error) {
		if v, ok := load(); ok {
			hit = s.Lookup(true) // only the leader runs this
			return v, nil
		}
		return fill()
	})
	return v, hit, err
}
