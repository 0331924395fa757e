package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pythia/internal/trace"
)

// bgCtx is the context for tests that don't exercise cancellation.
var bgCtx = context.Background()

func testWorkload(t testing.TB) trace.Workload {
	t.Helper()
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("registry workload missing")
	}
	return w
}

// drain collects up to limit records from r (limit <= 0 means all). It
// stops after the chunk that reaches limit, leaving the reader mid-pass.
func drain(r trace.ChunkReader, limit int) []trace.Record {
	var out []trace.Record
	for limit <= 0 || len(out) < limit {
		c, ok := r.NextChunk()
		if !ok {
			break
		}
		out = append(out, c...)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func mustEqual(t *testing.T, got, want []trace.Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestGenSourceMatchesGenerate is the cornerstone equivalence: streaming
// delivery yields exactly the record sequence the materializing path
// produces, across Open, mid-stream Reset and post-EOF Reset — which is
// why experiment tables are byte-identical on either path.
func TestGenSourceMatchesGenerate(t *testing.T) {
	w := testWorkload(t)
	const n = 100_000
	want := w.Generate(n).Records

	src := &GenSource{W: w, N: n, Chunk: 4096}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	mustEqual(t, drain(r, 0), want, "first pass")
	if _, ok := r.NextChunk(); ok {
		t.Fatal("NextChunk after EOF returned a chunk")
	}
	r.Reset()
	mustEqual(t, drain(r, 0), want, "post-EOF reset pass")

	// Mid-stream reset must restart from the first record.
	r.Reset()
	drain(r, 1234)
	r.Reset()
	mustEqual(t, drain(r, 0), want, "mid-stream reset pass")
}

func TestFileSourceMatchesGenerate(t *testing.T) {
	w := testWorkload(t)
	const n = 50_000
	want := w.Generate(n).Records

	cache := NewCache(t.TempDir())
	src, err := cache.Source(bgCtx, w, n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustEqual(t, drain(r, 0), want, "file pass")
	r.Reset()
	drain(r, 777)
	r.Reset()
	mustEqual(t, drain(r, 0), want, "file reset pass")
}

func TestFileSourceOpenErrors(t *testing.T) {
	if _, err := (&FileSource{Path: filepath.Join(t.TempDir(), "missing.pytr")}).Open(); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.pytr")
	if err := os.WriteFile(bad, []byte("NOTATRACE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&FileSource{Path: bad}).Open(); err == nil {
		t.Error("Open of a corrupt file succeeded")
	}
}

// TestCacheSingleflight races many workers at one cache entry: exactly one
// generation pass must happen and every caller must end up streaming the
// same valid file.
func TestCacheSingleflight(t *testing.T) {
	w := testWorkload(t)
	cache := NewCache(t.TempDir())
	const n = 20_000
	paths := make([]string, 16)
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := cache.Ensure(bgCtx, w, n)
			if err != nil {
				t.Error(err)
				return
			}
			paths[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range paths[1:] {
		if p != paths[0] {
			t.Fatalf("divergent cache paths %q vs %q", p, paths[0])
		}
	}
	// Exactly one file (no leftover temp files from racing writers).
	entries, err := os.ReadDir(cache.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries, want 1", len(entries))
	}
}

// TestCacheRepopulatesInvalid ensures a corrupt cache entry is regenerated
// rather than streamed.
func TestCacheRepopulatesInvalid(t *testing.T) {
	w := testWorkload(t)
	cache := NewCache(t.TempDir())
	path, err := cache.Ensure(bgCtx, w, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Ensure(bgCtx, w, 5000); err != nil {
		t.Fatal(err)
	}
	src, err := cache.Source(bgCtx, w, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustEqual(t, drain(r, 0), w.Generate(5000).Records, "repopulated")
}

// TestCacheServesFixedWorkloadsFromMemory: file-backed workloads must not
// round-trip through the disk cache (their key has no content identity, so
// a regenerated source file with the same name and length could be served
// stale); the cache hands back their resident records directly.
func TestCacheServesFixedWorkloadsFromMemory(t *testing.T) {
	tr := testWorkload(t).Generate(1000)
	fixed := trace.Fixed(tr)
	cache := NewCache(t.TempDir())
	src, err := cache.Source(bgCtx, fixed, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*SliceSource); !ok {
		t.Fatalf("fixed workload served via %T, want *SliceSource", src)
	}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustEqual(t, drain(r, 0), tr.Records, "fixed pass")
	if entries, _ := os.ReadDir(cache.Dir()); len(entries) != 0 {
		t.Errorf("fixed workload wrote %d cache entries", len(entries))
	}
	if _, err := cache.Ensure(bgCtx, fixed, 500); err == nil {
		t.Error("Ensure accepted a fixed workload")
	}
}

// TestCacheKeysDistinguishLengths ensures different trace lengths land on
// different entries.
func TestCacheKeysDistinguishLengths(t *testing.T) {
	w := testWorkload(t)
	cache := NewCache(t.TempDir())
	p1, err := cache.Ensure(bgCtx, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.Ensure(bgCtx, w, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("1000- and 2000-record traces share a cache entry")
	}
}

// TestStreamingBoundedAllocation is the acceptance gate for the streaming
// path: delivering a trace that would materialize to ~48 MB must allocate
// only the chunk ring plus generator state — no full-trace []Record ever
// exists.
func TestStreamingBoundedAllocation(t *testing.T) {
	w := testWorkload(t)
	const n = 2_000_000 // 48 MB if materialized at 24 B/record
	src := &GenSource{W: w, N: n}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	var count int
	for c, ok := r.NextChunk(); ok; c, ok = r.NextChunk() {
		count += c.Len()
	}
	r.Close()
	runtime.ReadMemStats(&after)

	if count != n {
		t.Fatalf("streamed %d records, want %d", count, n)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	full := uint64(n) * 24
	if allocated > full/4 {
		t.Errorf("streaming pass allocated %d bytes total (full trace is %d); chunk recycling is broken", allocated, full)
	}
}

// TestReaderCloseReleasesProducer verifies Close (and abandoning a reader
// mid-stream) terminates the producer goroutine.
func TestReaderCloseReleasesProducer(t *testing.T) {
	w := testWorkload(t)
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		src := &GenSource{W: w, N: 1_000_000, Chunk: 1024}
		r, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		drain(r, 100) // leave the producer blocked mid-stream
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal("second Close errored:", err)
		}
		r.Reset() // no-op after Close
		if _, ok := r.NextChunk(); ok {
			t.Fatal("NextChunk after Close returned a chunk")
		}
	}
	// Producers exit asynchronously after Close; give them a beat.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines alive, started with %d: producer leak", got, base)
	}
}

func TestSliceSource(t *testing.T) {
	tr := testWorkload(t).Generate(1000)
	src := &SliceSource{T: tr}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustEqual(t, drain(r, 0), tr.Records, "slice pass")
	r.Reset()
	mustEqual(t, drain(r, 0), tr.Records, "slice reset")
}

func TestMaterialize(t *testing.T) {
	w := testWorkload(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.pytr")
	recs, instrs, err := Materialize(bgCtx, path, w, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if recs != 10_000 || instrs <= int64(recs) {
		t.Fatalf("wrote %d records / %d instructions", recs, instrs)
	}
	want := w.Generate(10_000)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got.Records, want.Records, "materialized file")
	if got.Name != w.Name || got.Suite != w.Suite {
		t.Errorf("identity %q/%q, want %q/%q", got.Name, got.Suite, w.Name, w.Suite)
	}

	// An uncreatable path errors and leaves nothing behind.
	badPath := filepath.Join(dir, "no-such-dir", "out.pytr")
	if _, _, err := Materialize(bgCtx, badPath, w, 100); err == nil {
		t.Error("Materialize into a missing directory succeeded")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Error("partial output left behind")
	}
}

// TestMaterializeBytesPinned pins the trace-file bytes of one registry
// workload at a fixed length: the digest was taken from files written
// before the codec moved to byte slices, so any drift in the generator or
// the on-disk format fails here (cache keys would silently go stale).
func TestMaterializeBytesPinned(t *testing.T) {
	const (
		n          = 50_000
		wantLen    = 414_100
		wantSHA256 = "25653cfc5681f546c64e1a91d1f2c4271662c8d8ecc60a5b77c4574283c65bad"
	)
	path := filepath.Join(t.TempDir(), "pinned.pytr")
	if _, _, err := Materialize(bgCtx, path, testWorkload(t), n); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("Materialize wrote %d bytes with SHA-256 %s, want %d bytes with %s", len(data), got, wantLen, wantSHA256)
	}
}

// TestCacheFileNamePinned pins the trace cache's file naming: a registry
// workload at a fixed length lands under a fixed base name, holding the
// bytes TestMaterializeBytesPinned pins. A renamed entry would make every
// existing cache directory miss.
func TestCacheFileNamePinned(t *testing.T) {
	const (
		n          = 50_000
		wantBase   = "459.GemsFDTD-100B-63fb50de97b66790.pytr"
		wantSHA256 = "25653cfc5681f546c64e1a91d1f2c4271662c8d8ecc60a5b77c4574283c65bad"
	)
	path, err := NewCache(t.TempDir()).Ensure(bgCtx, testWorkload(t), n)
	if err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(path); got != wantBase {
		t.Fatalf("Ensure path base = %q, want %q", got, wantBase)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Fatalf("cache entry has SHA-256 %x, want %s", sum, wantSHA256)
	}
}

// TestFileReaderSurfacesMidStreamCorruption: truncating a trace file under
// an open reader (the header stays intact, the body dies mid-record) must
// end the stream with NextChunk == false and a sticky non-nil Err — never
// a panic, never a silent truncation that looks like EOF.
func TestFileReaderSurfacesMidStreamCorruption(t *testing.T) {
	w := testWorkload(t)
	const n = 20_000
	cache := NewCache(t.TempDir())
	path, err := cache.Ensure(bgCtx, w, n)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header plus a prefix of the body; the decoder hits
	// unexpected EOF before reaching the declared record count.
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	src := &FileSource{Path: path, Chunk: 512}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err) // header is intact, Open must succeed
	}
	defer r.Close()
	got := drain(r, 0)
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("drained %d records from a half-truncated %d-record trace", len(got), n)
	}
	if r.Err() == nil {
		t.Fatal("reader reports clean EOF on a corrupted file")
	}
	// The error is sticky: further reads and resets change nothing.
	r.Reset()
	if _, ok := r.NextChunk(); ok {
		t.Error("NextChunk delivered a chunk after a sticky delivery error")
	}
	if r.Err() == nil {
		t.Error("Err cleared by Reset")
	}
}

// TestFileReaderSurfacesResetFailure: deleting the backing file mid-run
// makes the next Reset (reopen) fail; the failure lands in Err and
// NextChunk returns false, instead of the old panic.
func TestFileReaderSurfacesResetFailure(t *testing.T) {
	w := testWorkload(t)
	const n = 5_000
	cache := NewCache(t.TempDir())
	path, err := cache.Ensure(bgCtx, w, n)
	if err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path, Chunk: 512}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drain(r, 0); len(got) != n {
		t.Fatalf("first pass drained %d records, want %d", len(got), n)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if _, ok := r.NextChunk(); ok {
		t.Fatal("NextChunk delivered a chunk after a failed Reset")
	}
	if r.Err() == nil {
		t.Fatal("failed Reset left Err nil")
	}
}

// TestCleanEOFHasNilErr pins the other half of the contract: a stream
// that ends normally reports Err == nil, so consumers can distinguish
// EOF from failure.
func TestCleanEOFHasNilErr(t *testing.T) {
	w := testWorkload(t)
	src := &GenSource{W: w, N: 1000}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drain(r, 0)
	if r.Err() != nil {
		t.Fatalf("clean stream reports Err = %v", r.Err())
	}
}
