package fsutil

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/fault"
)

var testCounters = StoreCounters("fsutil-test")

func writeBytes(b string) func(*os.File) error {
	return func(f *os.File) error {
		_, err := f.WriteString(b)
		return err
	}
}

// TestGetOrFillCountsRecheckHit: a lookup that misses and then finds the
// entry on the flight's re-check (another process landed it) counts one
// miss and one hit, reports a hit and never fills.
func TestGetOrFillCountsRecheckHit(t *testing.T) {
	s := NewStore[string](t.TempDir(), ".e", testCounters, "")
	before := testCounters.hits.Value()
	v, hit, err := s.GetOrFill("k",
		func() (string, bool) { return "", false },
		func() (string, bool) { return "landed", true },
		func() (string, error) {
			t.Error("filled an entry the re-check found")
			return "", nil
		})
	if err != nil || !hit || v != "landed" {
		t.Fatalf("GetOrFill = %q, %v, %v; want landed, true, nil", v, hit, err)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Writes() != 0 {
		t.Errorf("counts hits=%d misses=%d writes=%d, want 1/1/0", s.Hits(), s.Misses(), s.Writes())
	}
	if d := testCounters.hits.Value() - before; d != 1 {
		t.Errorf("shared hit series moved by %d, want 1", d)
	}

	v, hit, err = s.GetOrFill("k", func() (string, bool) { return "first", true }, nil, nil)
	if err != nil || !hit || v != "first" || s.Hits() != 2 {
		t.Errorf("first-lookup hit = %q, %v, %v with %d hits", v, hit, err, s.Hits())
	}
}

// TestGetOrFillSharesOneFill: concurrent misses for one key run fill once;
// every caller gets the value and the persist error, and none reports a
// hit.
func TestGetOrFillSharesOneFill(t *testing.T) {
	s := NewStore[int](t.TempDir(), ".e", testCounters, "")
	boom := errors.New("persist failed")
	var fills atomic.Int32
	release := make(chan struct{})
	const callers = 8
	var wg, arrived sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			miss := func() (int, bool) { return 0, false }
			v, hit, err := s.GetOrFill("k", miss, miss, func() (int, error) {
				fills.Add(1)
				<-release
				return 42, boom
			})
			if v != 42 || hit || !errors.Is(err, boom) {
				t.Errorf("caller got %d, %v, %v; want 42, false, persist error", v, hit, err)
			}
		}()
	}
	arrived.Wait()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	if s.Misses() != callers || s.Hits() != 0 {
		t.Errorf("counts hits=%d misses=%d, want 0/%d", s.Hits(), s.Misses(), callers)
	}
}

// TestWriteSweepsFailsCleanlyAndCounts: the first write sweeps stale
// temps; an armed failpoint fails the write with nothing on disk and
// nothing counted; Names and Len see only entry files.
func TestWriteSweepsFailsCleanlyAndCounts(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "a.e.tmp123")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * StaleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	const fp = "fsutil.test-write"
	s := NewStore[struct{}](dir, ".e", testCounters, fp)
	disable := fault.Enable(fp, fault.Spec{})
	if err := s.Write(s.Path("a"), writeBytes("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Write with armed failpoint = %v, want injected fault", err)
	}
	disable()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 || s.Writes() != 0 {
		t.Fatalf("after failed write: %d files, %d writes; want 0, 0", len(ents), s.Writes())
	}
	if err := s.Write(s.Path("a"), writeBytes("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.e.tmp456"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.other"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if names := s.Names(); len(names) != 1 || names[0] != "a.e" || s.Len() != 1 || s.Writes() != 1 {
		t.Errorf("Names = %v, Len = %d, Writes = %d; want [a.e], 1, 1", names, s.Len(), s.Writes())
	}
}

func TestDefaultDir(t *testing.T) {
	t.Setenv("FSUTIL_TEST_DIR", "")
	if got, want := DefaultDir("FSUTIL_TEST_DIR", "base"), filepath.Join(os.TempDir(), "base"); got != want {
		t.Errorf("unset: %s, want %s", got, want)
	}
	t.Setenv("FSUTIL_TEST_DIR", "/elsewhere")
	if got := DefaultDir("FSUTIL_TEST_DIR", "base"); got != "/elsewhere" {
		t.Errorf("set: %s, want /elsewhere", got)
	}
}
