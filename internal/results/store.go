// Package results is the persistent experiment result store: a
// content-addressed, on-disk collection of JSON payloads keyed by what was
// measured (kind + name) and a fingerprint of everything that could change
// the outcome (configuration, scale, trace.GenVersion, payload schema).
//
// Its directory, counters, atomic writes and deduplicated get-or-fill
// come from the store core in internal/fsutil, shared with the policy
// store and the trace cache; this package adds the key-to-file mapping
// and the JSON envelope, whose identity fields are re-checked on every
// read. Concurrent processes sharing a directory are safe: both write,
// either rename wins, and contents are identical because simulations are
// deterministic.
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
	"reflect"
	"sync/atomic"
	"time"

	"pythia/internal/fsutil"
	"pythia/internal/trace"
)

// counters feed /metrics for every Store, labeled store="results".
var counters = fsutil.StoreCounters("results")

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

// entry is the part of an envelope a read needs: the identity fields, and
// the payload decoded straight into the reader's value in the same pass.
type entry struct {
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Payload     any    `json:"payload"`
}

// Store is an on-disk result store rooted at one directory (created on
// first write). The zero value is not usable; call Open.
type Store struct {
	// A GetOrCompute flight delivers the raw payload.
	*fsutil.Store[json.RawMessage]
	readOnly atomic.Bool
}

// Open returns a store rooted at dir. The directory is created lazily on
// first write, so opening a store never touches the filesystem.
func Open(dir string) *Store {
	return &Store{Store: fsutil.NewStore[json.RawMessage](dir, ".json", counters, FPWrite)}
}

// DefaultDir returns the store directory used when none is configured: the
// PYTHIA_RESULT_STORE environment variable, or pythia-result-store under
// the OS temp directory.
func DefaultDir() string { return fsutil.DefaultDir("PYTHIA_RESULT_STORE", "pythia-result-store") }

// SetReadOnly toggles write suppression: a read-only store serves hits but
// silently drops Put calls (pythia-bench -results-readonly uses this to
// consume a shared populated store without mutating it).
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// path maps a key to its file. The name is embedded (sanitized) for
// debuggability; the fingerprint digest provides the content addressing.
func (s *Store) path(key Key) string {
	name := fsutil.Sanitize(key.Name)
	if len(name) > 80 {
		name = name[:80]
	}
	return s.Path(fsutil.Sanitize(key.Kind) + "-" + name + "-" + key.Fingerprint)
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
func (s *Store) Get(key Key, out any) bool { return s.Lookup(s.get(key, out)) }

// get is Get without the counting.
func (s *Store) get(key Key, out any) bool {
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return false
	}
	fresh := reflect.New(dst.Type()) // a pointer to a nil *T
	if !s.decode(key, fresh.Interface()) || fresh.Elem().IsNil() {
		return false
	}
	dst.Elem().Set(fresh.Elem().Elem())
	return true
}

// Put persists a payload under a key, overwriting any previous entry.
// Writes go through a unique temp file and atomic rename; no error path
// leaves a partial file behind. On a read-only store Put writes nothing.
func (s *Store) Put(key Key, payload any) error {
	_, err := s.put(key, payload)
	return err
}

// put marshals payload and, unless the store is read-only, lands it under
// key. It returns the marshalled payload even when the write fails.
func (s *Store) put(key Key, payload any) (json.RawMessage, error) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("results: marshal %s/%s: %w", key.Kind, key.Name, err)
	}
	if s.readOnly.Load() {
		return buf, nil
	}
	if err := s.Write(s.path(key), fsutil.WriteJSON(&envelope{
		Kind:        key.Kind,
		Name:        key.Name,
		Fingerprint: key.Fingerprint,
		GenVersion:  trace.GenVersion,
		CreatedAt:   time.Now().UTC(),
		Payload:     buf,
	})); err != nil {
		return buf, fmt.Errorf("results: %w", err)
	}
	return buf, nil
}

// Has reports whether a valid entry for key is on disk, without
// decoding its payload or touching the hit/miss counters: the file parses
// and names key, and carries a payload, whose shape only a Get can check.
// The serving layer uses it to admit store-hit requests while writes are
// degraded.
func (s *Store) Has(key Key) bool {
	_, ok := s.raw(key)
	return ok
}

// raw reads key's payload without decoding it.
func (s *Store) raw(key Key) (json.RawMessage, bool) {
	var raw *json.RawMessage
	if !s.decode(key, &raw) || raw == nil {
		return nil, false
	}
	return *raw, true
}

// GetOrCompute returns the stored payload for key, computing and persisting
// it on a miss. Concurrent callers for one key are deduplicated through a
// singleflight: exactly one runs compute, everyone shares the result. The
// result is unmarshalled into out; hit reports whether disk served it
// without running compute. A failed persist does not fail the call — the
// computed value is still delivered (and the error surfaced) so a full
// disk degrades to "no reuse", never to "no results". The first lookup is
// Get's one-pass decode into out; only the flight's re-check reads the
// payload raw.
func (s *Store) GetOrCompute(key Key, out any, compute func() (any, error)) (hit bool, err error) {
	look := func() (json.RawMessage, bool) { return nil, s.get(key, out) }
	load := func() (json.RawMessage, bool) { return s.raw(key) }
	payload, hit, err := s.GetOrFill(key.Kind+"\x00"+key.Name+"\x00"+key.Fingerprint, look, load,
		func() (json.RawMessage, error) {
			v, err := compute()
			if err != nil {
				return nil, err
			}
			return s.put(key, v)
		})
	if payload != nil {
		if uerr := json.Unmarshal(payload, out); uerr != nil {
			return false, uerr
		}
	}
	return hit, err
}
