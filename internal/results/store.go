// Package results is the persistent experiment result store: a
// content-addressed, on-disk collection of JSON payloads keyed by what was
// measured (kind + name) and a fingerprint of everything that could change
// the outcome (configuration, scale, trace.GenVersion, payload schema).
//
// It shares the crash-safety machinery of the on-disk trace cache
// (internal/fsutil, internal/flight): population is deduplicated through a
// singleflight so concurrent writers for one key do the work once, and
// files land via fully-written temp files plus atomic rename, so readers
// never observe partial JSON and concurrent processes sharing a directory
// are safe (both write, either rename wins, contents are identical because
// simulations are deterministic).
//
// Unlike the harness's in-memory memoization, entries survive process
// restarts: pythia-bench, pythia-serve, tests and examples pointed at one
// directory all reuse each other's simulations. Payloads carry per-trial
// statistics (every simulated core's full counter set), not just headline
// aggregates, so downstream consumers can report dispersion.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/fault"
	"pythia/internal/flight"
	"pythia/internal/fsutil"
	"pythia/internal/obs"
	"pythia/internal/trace"
)

// Process-wide registry counters, shared by every Store instance (the
// per-instance atomics remain the per-store source of truth for tests and
// /healthz detail; these feed /metrics, labeled by store).
var (
	obsHits   = obs.GetCounter("pythia_store_hits_total", "Store lookups served from disk.", obs.L("store", "results"))
	obsMisses = obs.GetCounter("pythia_store_misses_total", "Store lookups that found no valid entry.", obs.L("store", "results"))
	obsWrites = obs.GetCounter("pythia_store_writes_total", "Store entries successfully persisted.", obs.L("store", "results"))
)

// FPWrite is the failpoint at the head of every store write; chaos tests
// arm it to fail result persistence without touching other WriteAtomic
// users (the policy store, the job journal).
const FPWrite = "results.write"

// SchemaVersion is baked into every fingerprint; bump it when a payload's
// JSON shape changes incompatibly so stale entries miss instead of
// half-decoding.
const SchemaVersion = 1

// Key identifies one stored result.
type Key struct {
	// Kind groups entries by producer ("run" for single simulations,
	// "experiment" for rendered tables).
	Kind string
	// Name is the human-readable identity (mix|prefetcher, experiment ID).
	Name string
	// Fingerprint hashes everything else that determines the outcome; use
	// Fingerprint to build it.
	Fingerprint string
}

// Fingerprint condenses the outcome-determining parts of a key into a
// fixed-width hex digest. trace.GenVersion and SchemaVersion are always
// mixed in, so generator changes and schema changes both invalidate every
// prior entry without any deletion pass.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "g%d|v%d", trace.GenVersion, SchemaVersion)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// envelope is the on-disk JSON document. The key fields are stored
// alongside the payload and re-checked on read, so a filename-hash
// collision (or a hand-copied file) can never serve the wrong result.
type envelope struct {
	Kind        string          `json:"kind"`
	Name        string          `json:"name"`
	Fingerprint string          `json:"fingerprint"`
	GenVersion  int             `json:"gen_version"`
	CreatedAt   time.Time       `json:"created_at"`
	Payload     json.RawMessage `json:"payload"`
}

// Store is an on-disk result store rooted at one directory (created on
// first write). The zero value is not usable; call Open.
type Store struct {
	dir      string
	readOnly atomic.Bool

	flight flight.Group[flightOut]

	sweepOnce sync.Once

	hits, misses, writes atomic.Int64
}

// flightOut is what a GetOrCompute flight delivers to every caller; the
// flight's error return carries compute/persist failures alongside it.
type flightOut struct {
	payload json.RawMessage
	hit     bool
}

// Open returns a store rooted at dir. The directory is created lazily on
// first write, so opening a store never touches the filesystem.
func Open(dir string) *Store {
	return &Store{dir: dir}
}

// DefaultDir returns the store directory used when none is configured: the
// PYTHIA_RESULT_STORE environment variable, or pythia-result-store under
// the OS temp directory.
func DefaultDir() string {
	if dir := os.Getenv("PYTHIA_RESULT_STORE"); dir != "" {
		return dir
	}
	return filepath.Join(os.TempDir(), "pythia-result-store")
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetReadOnly toggles write suppression: a read-only store serves hits but
// silently drops Put calls (CI uses this to consume a shared populated
// store without mutating it).
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether writes are suppressed.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Hits returns the number of Get/GetOrCompute calls served from disk.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns the number of lookups that found no valid entry.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Writes returns the number of entries successfully persisted.
func (s *Store) Writes() int64 { return s.writes.Load() }

// hit/miss/wrote bump the per-instance atomic and the shared registry
// counter together so /metrics and the instance views cannot drift.
func (s *Store) hit()   { s.hits.Add(1); obsHits.Inc() }
func (s *Store) miss()  { s.misses.Add(1); obsMisses.Inc() }
func (s *Store) wrote() { s.writes.Add(1); obsWrites.Inc() }

// path maps a key to its file. The name is embedded (sanitized) for
// debuggability; the fingerprint digest provides the content addressing.
func (s *Store) path(key Key) string {
	name := fsutil.Sanitize(key.Name)
	if len(name) > 80 {
		name = name[:80]
	}
	return filepath.Join(s.dir, fsutil.Sanitize(key.Kind)+"-"+name+"-"+key.Fingerprint+".json")
}

// entry is the part of an envelope a read needs: the identity fields, and
// the payload decoded straight into the reader's value in the same pass.
type entry struct {
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Payload     any    `json:"payload"`
}

// decode is the store's one read path. It reads key's file and unmarshals
// envelope and payload in a single JSON parse, the payload into target,
// which must be a pointer to a nil pointer: the payload is present only
// when the decode left that pointer non-nil. It reports whether the file
// exists, parses as an envelope whose payload fits target, and names key
// (kind, name and fingerprint are re-checked, so a filename-hash
// collision or a hand-copied file can never serve the wrong result).
func (s *Store) decode(key Key, target any) bool {
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		return false
	}
	e := entry{Payload: target}
	if json.Unmarshal(buf, &e) != nil {
		return false
	}
	return e.Kind == key.Kind && e.Name == key.Name && e.Fingerprint == key.Fingerprint
}

// Get looks a key up and, on a hit, stores the payload in out, which must
// be a non-nil pointer. The payload is decoded into a fresh value and
// copied into out only once the entry is known to be valid, so a miss —
// absent file, malformed JSON, a missing, null or mis-shaped payload, an
// envelope whose identity fields do not match the key, or an unusable
// out — returns false and leaves out untouched.
func (s *Store) Get(key Key, out any) bool {
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		s.miss()
		return false
	}
	fresh := reflect.New(dst.Type()) // a pointer to a nil *T
	if !s.decode(key, fresh.Interface()) || fresh.Elem().IsNil() {
		s.miss()
		return false
	}
	dst.Elem().Set(fresh.Elem().Elem())
	s.hit()
	return true
}

// Put persists a payload under a key, overwriting any previous entry.
// Writes go through a unique temp file and atomic rename; no error path
// leaves a partial file behind. On a read-only store Put is a no-op.
func (s *Store) Put(key Key, payload any) error {
	if s.ReadOnly() {
		return nil
	}
	buf, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("results: marshal %s/%s: %w", key.Kind, key.Name, err)
	}
	return s.write(key, buf)
}

// write lands raw payload bytes on disk.
func (s *Store) write(key Key, payload json.RawMessage) error {
	env := envelope{
		Kind:        key.Kind,
		Name:        key.Name,
		Fingerprint: key.Fingerprint,
		GenVersion:  trace.GenVersion,
		CreatedAt:   time.Now().UTC(),
		Payload:     payload,
	}
	buf, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return fmt.Errorf("results: marshal envelope: %w", err)
	}
	buf = append(buf, '\n')

	s.Sweep()
	if err := fault.Hit(FPWrite); err != nil {
		return fmt.Errorf("results: write %s/%s: %w", key.Kind, key.Name, err)
	}
	path := s.path(key)
	if err := fsutil.WriteAtomic(s.dir, path, func(tmp *os.File) error {
		_, werr := tmp.Write(buf)
		return fault.Transient(werr)
	}); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	s.wrote()
	return nil
}

// Sweep reclaims temp files orphaned by crashed processes now, instead
// of waiting for the first write (long-lived services sweep at startup).
// It runs at most once per Store.
func (s *Store) Sweep() {
	s.sweepOnce.Do(func() { fsutil.SweepStaleTemps(s.dir) })
}

// Has reports whether a valid entry for key is on disk, without
// decoding its payload or touching the hit/miss counters: the file parses
// and names key, and carries a payload, whose shape only a Get can check.
// The serving layer uses it to admit store-hit requests while writes are
// degraded.
func (s *Store) Has(key Key) bool {
	var raw *json.RawMessage
	return s.decode(key, &raw) && raw != nil
}

// GetOrCompute returns the stored payload for key, computing and persisting
// it on a miss. Concurrent callers for one key are deduplicated through a
// singleflight: exactly one runs compute, everyone shares the result. The
// result is unmarshalled into out; hit reports whether disk served it
// without running compute. A failed persist does not fail the call — the
// computed value is still delivered (and the error surfaced) so a full
// disk degrades to "no reuse", never to "no results".
func (s *Store) GetOrCompute(key Key, out any, compute func() (any, error)) (hit bool, err error) {
	if s.Get(key, out) {
		return true, nil
	}

	flightKey := key.Kind + "\x00" + key.Name + "\x00" + key.Fingerprint
	res, leader, ferr := s.flight.Do(flightKey, func() (flightOut, error) {
		// Re-check under the flight: an earlier flight (or another process)
		// may have landed the entry between our miss and taking leadership.
		var raw *json.RawMessage
		if s.decode(key, &raw) && raw != nil {
			s.hit()
			return flightOut{payload: *raw, hit: true}, nil
		}
		v, err := compute()
		if err != nil {
			return flightOut{}, err
		}
		buf, err := json.Marshal(v)
		if err != nil {
			return flightOut{}, fmt.Errorf("results: marshal %s/%s: %w", key.Kind, key.Name, err)
		}
		o := flightOut{payload: buf}
		if !s.ReadOnly() {
			// Delivery beats persistence; report a write failure without
			// discarding the computed value.
			return o, s.write(key, buf)
		}
		return o, nil
	})
	if res.payload == nil {
		return false, ferr
	}
	if uerr := json.Unmarshal(res.payload, out); uerr != nil {
		return false, uerr
	}
	// Waiters share the leader's payload but report hit=false: they did
	// not observe the entry on disk themselves.
	return res.hit && leader, ferr
}

// Len reports how many entries are currently on disk (for tests and
// status endpoints; it scans the directory).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
