package results_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/fault"
	"pythia/internal/fsutil"
	"pythia/internal/results"
)

type payload struct {
	Label string    `json:"label"`
	IPC   []float64 `json:"ipc"`
}

func testKey(name string, parts ...string) results.Key {
	return results.Key{Kind: "run", Name: name, Fingerprint: results.Fingerprint(parts...)}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := results.Open(t.TempDir())
	key := testKey("gems|pythia", "scale=quick")
	want := payload{Label: "gems", IPC: []float64{1.25, 0.75}}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(key, &got) {
		t.Fatal("stored entry missed")
	}
	if got.Label != want.Label || len(got.IPC) != 2 || got.IPC[0] != want.IPC[0] {
		t.Fatalf("round trip mangled payload: %+v", got)
	}
	if s.Hits() != 1 || s.Writes() != 1 {
		t.Errorf("counters hits=%d writes=%d, want 1/1", s.Hits(), s.Writes())
	}
}

func TestGetMissesOnDifferentFingerprint(t *testing.T) {
	s := results.Open(t.TempDir())
	if err := s.Put(testKey("w", "cfg=a"), payload{Label: "a"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Get(testKey("w", "cfg=b"), &got) {
		t.Error("fingerprint for a different config served a hit")
	}
}

func TestEntriesSurviveReopen(t *testing.T) {
	// The property RunCached builds on: a fresh Store over the same
	// directory (a process restart) serves entries written by the old one.
	dir := t.TempDir()
	key := testKey("gems|nopref", "scale=quick")
	if err := results.Open(dir).Put(key, payload{Label: "persisted"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !results.Open(dir).Get(key, &got) || got.Label != "persisted" {
		t.Fatalf("entry did not survive reopen: %+v", got)
	}
}

func TestGetRejectsTamperedEnvelope(t *testing.T) {
	dir := t.TempDir()
	s := results.Open(dir)
	key := testKey("w", "cfg")
	if err := s.Put(key, payload{Label: "x"}); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected 1 file, found %d", len(ents))
	}
	// Rename the file to where a different key would live: the embedded
	// identity must be re-checked, not trusted from the filename.
	other := testKey("w", "other-cfg")
	src := filepath.Join(dir, ents[0].Name())
	dst := strings.Replace(src, key.Fingerprint, other.Fingerprint, 1)
	if src == dst {
		t.Fatal("test keys collided")
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Get(other, &got) {
		t.Error("renamed entry served under the wrong key")
	}
}

func TestGetOrComputeDeduplicatesConcurrentCallers(t *testing.T) {
	s := results.Open(t.TempDir())
	key := testKey("w", "cfg")
	var calls atomic.Int32
	release := make(chan struct{})
	const callers = 8
	var wg, arrived sync.WaitGroup
	outs := make([]payload, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			_, err := s.GetOrCompute(key, &outs[i], func() (any, error) {
				calls.Add(1)
				<-release
				return payload{Label: "computed", IPC: []float64{1}}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times for one key, want 1", got)
	}
	for i := range outs {
		if outs[i].Label != "computed" {
			t.Errorf("caller %d got %+v", i, outs[i])
		}
	}
	// A later call is a plain disk hit.
	var again payload
	hit, err := s.GetOrCompute(key, &again, func() (any, error) {
		t.Error("compute ran despite persisted entry")
		return nil, nil
	})
	if err != nil || !hit {
		t.Errorf("follow-up GetOrCompute hit=%v err=%v", hit, err)
	}
}

func TestReadOnlySuppressesWrites(t *testing.T) {
	s := results.Open(t.TempDir())
	s.SetReadOnly(true)
	key := testKey("w", "cfg")
	if err := s.Put(key, payload{Label: "x"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Error("read-only Put landed a file")
	}
	var out payload
	hit, err := s.GetOrCompute(key, &out, func() (any, error) {
		return payload{Label: "fresh"}, nil
	})
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if out.Label != "fresh" {
		t.Errorf("computed value not delivered: %+v", out)
	}
	if s.Len() != 0 {
		t.Error("read-only GetOrCompute landed a file")
	}
}

// TestWriteFailureLeavesNoPartialFiles is the failure-injection audit: a
// write that dies between payload and sync must deliver the computed value,
// surface the error, and leave the store directory free of temp or partial
// entry files.
func TestWriteFailureLeavesNoPartialFiles(t *testing.T) {
	dir := t.TempDir()
	s := results.Open(dir)
	boom := errors.New("injected disk failure")
	disable := fault.Enable(fsutil.FPWriteAtomic, fault.Spec{Err: boom})
	defer disable()

	key := testKey("w", "cfg")
	if err := s.Put(key, payload{Label: "x"}); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected failure", err)
	}
	var out payload
	hit, err := s.GetOrCompute(key, &out, func() (any, error) {
		return payload{Label: "survives"}, nil
	})
	if hit {
		t.Error("failed write somehow produced a hit")
	}
	if !errors.Is(err, boom) {
		t.Errorf("GetOrCompute error = %v, want injected failure surfaced", err)
	}
	if out.Label != "survives" {
		t.Errorf("computed value lost on write failure: %+v", out)
	}

	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("file left behind after injected failures: %s", e.Name())
	}

	// After the fault clears, the same key persists normally.
	disable()
	if err := s.Put(key, payload{Label: "x"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("store has %d entries after recovery, want 1", s.Len())
	}
}

func TestSweepReclaimsOnlyStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "run-w-abc.json.tmp123")
	fresh := filepath.Join(dir, "run-w-def.json.tmp456")
	entry := filepath.Join(dir, "run-w-abc.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fsutil.SweepStaleTemps(dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (a live writer) was reclaimed")
	}
	if _, err := os.Stat(entry); err != nil {
		t.Error("committed entry was reclaimed")
	}
}

func TestFingerprintSeparatesParts(t *testing.T) {
	if results.Fingerprint("ab", "c") == results.Fingerprint("a", "bc") {
		t.Error("part boundaries not separated in fingerprint")
	}
	if results.Fingerprint("x") == results.Fingerprint("y") {
		t.Error("distinct inputs collided")
	}
}

// entryFile returns the file key's entries live in, learned by storing a
// placeholder there.
func entryFile(t *testing.T, s *results.Store, key results.Key) string {
	t.Helper()
	if err := s.Put(key, payload{Label: "placeholder"}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one entry file, got %d (%v)", len(ents), err)
	}
	return filepath.Join(s.Dir(), ents[0].Name())
}

// TestGetMissesLeaveOutUntouched covers every way a read can miss: each
// must report false from Get, count a miss, and leave the caller's value
// exactly as it was, even where the JSON decodes partway (a payload whose
// second field has the wrong type). Has agrees except on a payload's
// shape, which only a typed read can check.
func TestGetMissesLeaveOutUntouched(t *testing.T) {
	key := testKey("gems|pythia", "cfg")
	doc := func(kind, name, fp, rest string) string {
		return fmt.Sprintf(`{"kind":%q,"name":%q,"fingerprint":%q,"gen_version":1,"created_at":"2026-01-01T00:00:00Z"%s}`,
			kind, name, fp, rest)
	}
	good := `,"payload":{"label":"stored","ipc":[1.5]}`
	for _, tc := range []struct {
		name string
		file string // entry contents; "" leaves no file
		has  bool   // Has cannot see a payload's shape, only Get can
	}{
		{"absent file", "", false},
		{"corrupt JSON", doc(key.Kind, key.Name, key.Fingerprint, good)[:60], false},
		{"trailing garbage", doc(key.Kind, key.Name, key.Fingerprint, good) + "}", false},
		{"kind mismatch", doc("experiment", key.Name, key.Fingerprint, good), false},
		{"name mismatch", doc(key.Kind, "gems|nopref", key.Fingerprint, good), false},
		{"fingerprint mismatch", doc(key.Kind, key.Name, "0123456789abcdef", good), false},
		{"payload of the wrong shape", doc(key.Kind, key.Name, key.Fingerprint, `,"payload":[1,2,3]`), true},
		{"payload field of the wrong type", doc(key.Kind, key.Name, key.Fingerprint, `,"payload":{"label":"partial","ipc":"x"}`), true},
		{"null payload", doc(key.Kind, key.Name, key.Fingerprint, `,"payload":null`), false},
		{"missing payload", doc(key.Kind, key.Name, key.Fingerprint, ""), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := results.Open(t.TempDir())
			if tc.file != "" {
				if err := os.WriteFile(entryFile(t, s, key), []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out := payload{Label: "caller's", IPC: []float64{9}}
			if s.Get(key, &out) {
				t.Fatal("Get hit")
			}
			if out.Label != "caller's" || len(out.IPC) != 1 || out.IPC[0] != 9 {
				t.Errorf("miss changed out to %+v", out)
			}
			if s.Misses() != 1 || s.Hits() != 0 {
				t.Errorf("counters hits=%d misses=%d, want 0/1", s.Hits(), s.Misses())
			}
			if got := s.Has(key); got != tc.has {
				t.Errorf("Has = %v, want %v", got, tc.has)
			}
		})
	}

	t.Run("unusable out", func(t *testing.T) {
		s := results.Open(t.TempDir())
		if err := s.Put(key, payload{Label: "stored"}); err != nil {
			t.Fatal(err)
		}
		out := payload{Label: "caller's"}
		if s.Get(key, out) {
			t.Error("Get hit into a non-pointer")
		}
		if s.Get(key, (*payload)(nil)) {
			t.Error("Get hit into a nil pointer")
		}
		if s.Get(key, nil) {
			t.Error("Get hit into nil")
		}
		if out.Label != "caller's" || s.Misses() != 3 {
			t.Errorf("out=%+v misses=%d, want untouched and 3", out, s.Misses())
		}
		if !s.Has(key) {
			t.Error("Has misses a valid entry")
		}
	})
}

// TestGetReplacesOutWholesale: a hit stores exactly the payload on disk,
// never a merge with what out held before (a field absent from the
// payload comes back zero, not as the caller's old value).
func TestGetReplacesOutWholesale(t *testing.T) {
	s := results.Open(t.TempDir())
	key := testKey("w", "cfg")
	stored := struct {
		Label string `json:"label"`
	}{"stored"} // no "ipc" field at all
	if err := s.Put(key, stored); err != nil {
		t.Fatal(err)
	}
	out := payload{Label: "caller's", IPC: []float64{9}}
	if !s.Get(key, &out) {
		t.Fatal("stored entry missed")
	}
	if out.Label != "stored" || out.IPC != nil {
		t.Errorf("hit left %+v, want exactly the stored payload", out)
	}
}
