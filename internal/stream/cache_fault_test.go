package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pythia/internal/fault"
	"pythia/internal/fsutil"
	"pythia/internal/trace"
)

// TestPopulateFailureLeavesNoPartialFiles is the trace-cache half of the
// temp-file audit: a population pass that dies after encoding must report
// the error and leave the cache directory completely empty — no partial
// entry, no orphaned temp file — and the entry must populate cleanly once
// the fault clears.
func TestPopulateFailureLeavesNoPartialFiles(t *testing.T) {
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	dir := t.TempDir()
	c := NewCache(dir)
	boom := errors.New("injected disk failure")
	disable := fault.Enable(fsutil.FPWriteAtomic, fault.Spec{Err: boom})
	defer disable()

	if _, err := c.Ensure(context.Background(), w, 2000); !errors.Is(err, boom) {
		t.Fatalf("Ensure error = %v, want injected failure", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("file left behind after injected failure: %s", e.Name())
	}

	disable()
	path, err := c.Ensure(context.Background(), w, 2000)
	if err != nil {
		t.Fatalf("Ensure after fault cleared: %v", err)
	}
	if !c.valid(path, w, 2000) {
		t.Error("recovered entry is not valid")
	}
}

// TestDecodeFaultSurfacesAsStickyError arms the decode failpoint and
// holds the package's error contract: a mid-stream decode failure
// surfaces as NextChunk() == false with a sticky Err() on the consumer side,
// never as a panic or a silently truncated trace. The failpoint counts
// records, so a spec skipping 100 hits delivers exactly 100 records, even
// though the decoder fills whole chunks.
func TestDecodeFaultSurfacesAsStickyError(t *testing.T) {
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	dir := t.TempDir()
	c := NewCache(dir)
	path, err := c.Ensure(context.Background(), w, 2000)
	if err != nil {
		t.Fatal(err)
	}

	defer fault.Enable(FPDecode, fault.Spec{Skip: 100})()
	r, err := (&FileSource{Path: path}).Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	reads := 0
	for c, ok := r.NextChunk(); ok; c, ok = r.NextChunk() {
		reads += c.Len()
	}
	if err := r.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err = %v, want injected decode fault", err)
	}
	if reads != 100 {
		t.Fatalf("consumer read %d records before the fault, want exactly the 100 the spec skips", reads)
	}
}

func TestCacheSweepReclaimsOnlyStaleTemps(t *testing.T) {
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	dir := t.TempDir()
	stale := filepath.Join(dir, "old.pytr.tmp123")
	fresh := filepath.Join(dir, "new.pytr.tmp456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	// First population triggers the sweep.
	c := NewCache(dir)
	if _, err := c.Ensure(context.Background(), w, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (a live writer) was reclaimed")
	}
	ents, _ := os.ReadDir(dir)
	var entries int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".pytr") {
			entries++
		}
	}
	if entries != 1 {
		t.Errorf("cache holds %d entries, want 1", entries)
	}
}
