package policy

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pythia/internal/fsutil"
)

// counters feed /metrics for every Store, labeled store="policies".
var counters = fsutil.StoreCounters("policies")

// FPWrite is the failpoint at the head of every policy-store write;
// chaos tests arm it to fail policy persistence in isolation.
const FPWrite = "policy.write"

// Store is an on-disk policy store rooted at one directory (created on
// first write). The zero value is not usable; call Open.
type Store struct {
	// A GetOrTrain flight delivers the envelope.
	*fsutil.Store[Envelope]
}

// Open returns a store rooted at dir. The directory is created lazily on
// first write, so opening a store never touches the filesystem.
func Open(dir string) *Store {
	return &Store{fsutil.NewStore[Envelope](dir, ".json", counters, FPWrite)}
}

// DefaultDir returns the store directory used when none is configured: the
// PYTHIA_POLICY_STORE environment variable, or pythia-policy-store under
// the OS temp directory.
func DefaultDir() string { return fsutil.DefaultDir("PYTHIA_POLICY_STORE", "pythia-policy-store") }

// path maps a policy ID, the content address, to its file.
func (s *Store) path(id string) string {
	return s.Path(fsutil.Sanitize(id))
}

// Get loads the envelope for a policy ID. It returns false on any miss:
// absent file, unreadable JSON, or an envelope whose embedded ID does not
// match (a hand-copied or renamed file can never serve the wrong policy).
func (s *Store) Get(id string) (Envelope, bool) {
	env, ok := s.load(id)
	return env, s.Lookup(ok)
}

// load reads and validates the envelope for an ID without counting.
func (s *Store) load(id string) (Envelope, bool) {
	env, err := ReadFile(s.path(id))
	if err != nil || env.ID != id {
		return Envelope{}, false
	}
	return env, true
}

// Put persists an envelope under its ID, overwriting any previous entry.
// Writes go through a unique temp file and atomic rename; no error path
// leaves a partial file behind.
func (s *Store) Put(env Envelope) error {
	if env.ID == "" {
		return fmt.Errorf("policy: envelope has no ID")
	}
	if err := s.Write(s.path(env.ID), fsutil.WriteJSON(&env)); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	return nil
}

// GetOrTrain returns the stored envelope for id, training and persisting
// it on a miss. Concurrent callers for one ID are deduplicated through a
// singleflight: exactly one runs train, everyone shares the result. hit
// reports whether disk served it without running train — the
// zero-additional-simulations guarantee repeat training requests rely on.
// A failed persist does not fail the call: the trained policy is still
// delivered (and the error surfaced), so a full disk degrades to "no
// reuse", never to "no policy".
func (s *Store) GetOrTrain(id string, train func() (Envelope, error)) (env Envelope, hit bool, err error) {
	load := func() (Envelope, bool) { return s.load(id) }
	return s.GetOrFill(id, load, load, func() (Envelope, error) {
		env, err := train()
		if err != nil {
			return Envelope{}, err
		}
		if env.ID != id {
			return Envelope{}, fmt.Errorf("policy: trained envelope has ID %s, expected %s", env.ID, id)
		}
		// Delivery beats persistence; report a write failure without
		// discarding the trained policy.
		return env, s.Put(env)
	})
}

// metaProbe decodes an envelope's metadata while skipping the expensive
// part: with the snapshot captured as raw JSON, the base64 payload is
// scanned but never decoded, so listing a store does not materialize
// every Q-table.
type metaProbe struct {
	Meta
	Snapshot json.RawMessage `json:"snapshot"`
}

// List returns the metadata of every valid envelope on disk, newest
// first. Unreadable or mismatched files are skipped, not errors: the
// listing describes what Get would serve. Snapshot payloads are not
// decoded.
func (s *Store) List() []Meta {
	var out []Meta
	for _, name := range s.Names() {
		buf, err := os.ReadFile(filepath.Join(s.Dir(), name))
		if err != nil {
			continue
		}
		var probe metaProbe
		if err := json.Unmarshal(buf, &probe); err != nil {
			continue
		}
		// Same identity check as load: the embedded ID must match the
		// filename, and a snapshot must be present (">2" = more than the
		// empty JSON string's quotes).
		if probe.ID != strings.TrimSuffix(name, ".json") || len(probe.Snapshot) <= 2 {
			continue
		}
		out = append(out, probe.Meta)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteFile saves a single envelope as a standalone file outside any
// store (pythia-sim -save-policy), using the same atomic temp-and-rename
// discipline.
func WriteFile(path string, env Envelope) error {
	if err := fsutil.WriteAtomic(filepath.Dir(path), path, fsutil.WriteJSON(&env)); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	return nil
}

// ReadFile loads a standalone envelope written by WriteFile (or copied
// out of a store).
func ReadFile(path string) (Envelope, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, fmt.Errorf("policy: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return Envelope{}, fmt.Errorf("policy: %s: %w", path, err)
	}
	if env.ID == "" || len(env.Snapshot) == 0 {
		return Envelope{}, fmt.Errorf("policy: %s: not a policy envelope", path)
	}
	return env, nil
}
