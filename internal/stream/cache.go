package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"pythia/internal/fsutil"
	"pythia/internal/trace"
)

// counters feed /metrics for every Cache, labeled store="trace", beside
// the result and policy stores' series.
var counters = fsutil.StoreCounters("trace")

// Cache is a content-addressed on-disk trace cache: files are keyed by
// Workload.Key (name, seed, length, generator version), so every process
// and every PR that shares a cache directory reuses the same generation
// pass, and any change to generator output lands on fresh file names.
//
// Population is deduplicated through the store core's get-or-fill
// (internal/fsutil): when N workers race to simulate the same workload,
// exactly one generates and encodes the trace while the rest wait, then
// everyone streams from disk.
type Cache struct {
	*fsutil.Store[struct{}]
}

// NewCache returns a cache rooted at dir (created on first population).
func NewCache(dir string) *Cache {
	return &Cache{fsutil.NewStore[struct{}](dir, ".pytr", counters, "")}
}

// DefaultDir returns the cache directory used when none is configured: the
// PYTHIA_TRACE_CACHE environment variable, or pythia-trace-cache under the
// OS temp directory.
func DefaultDir() string { return fsutil.DefaultDir("PYTHIA_TRACE_CACHE", "pythia-trace-cache") }

// path maps a workload identity to its cache file.
func (c *Cache) path(w trace.Workload, n int) string {
	sum := sha256.Sum256([]byte(w.Key(n)))
	return c.Path(fsutil.Sanitize(w.Name) + "-" + hex.EncodeToString(sum[:8]))
}

// Source ensures the workload's trace is on disk (generating it exactly
// once across concurrent callers) and returns a streaming FileSource over
// it; ctx bounds the generation pass. chunk is the pipeline chunk size in
// records (0 = DefaultChunk). File-backed (fixed) workloads are served
// straight from their resident records instead: they are already
// materialized, and their identity key carries no content hash, so
// persisting them could go stale.
func (c *Cache) Source(ctx context.Context, w trace.Workload, n, chunk int) (Source, error) {
	if ft := w.FixedTrace(); ft != nil {
		return &SliceSource{T: ft}, nil
	}
	path, err := c.Ensure(ctx, w, n)
	if err != nil {
		return nil, err
	}
	return &FileSource{Path: path, Chunk: chunk}, nil
}

// Ensure populates the cache entry for (w, n) if needed and returns its
// path. Concurrent calls for the same entry share one generation pass; a
// canceled ctx aborts the pass without leaving a partial file. Fixed
// workloads are rejected: their cache key has no content identity (see
// Source).
func (c *Cache) Ensure(ctx context.Context, w trace.Workload, n int) (string, error) {
	if w.FixedTrace() != nil {
		return "", fmt.Errorf("stream: fixed workload %s is not disk-cacheable", w.Name)
	}
	path := c.path(w, n)
	valid := func() (struct{}, bool) { return struct{}{}, c.valid(path, w, n) }
	_, _, err := c.GetOrFill(path, valid, valid, func() (struct{}, error) {
		// No error path leaves a partial file behind (cache_fault_test.go
		// injects faults to hold this).
		return struct{}{}, c.Write(path, func(tmp *os.File) error {
			_, _, werr := encodeWorkload(ctx, tmp, w, n)
			return werr
		})
	})
	if err != nil {
		return path, fmt.Errorf("stream: cache populate: %w", err)
	}
	return path, nil
}

// valid reports whether path holds a decodable trace matching the
// workload identity. Only the header is read; the body is trusted because
// files land via atomic rename of fully-written, synced temp files.
func (c *Cache) valid(path string, w trace.Workload, n int) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	d, err := trace.NewDecoder(f)
	if err != nil {
		return false
	}
	return d.Name() == w.Name && d.Count() == int64(w.NumRecords(n))
}

// encodeWorkload streams n records of w into wr through the incremental
// encoder, one column chunk at a time. The generator fills chunks in a
// chunk pipeline's producer goroutine (the one GenSource readers use), so
// generation overlaps encoding and writing, and no []Record is ever
// materialized between the two. The context is checked between chunks so
// a canceled generation pass aborts promptly.
func encodeWorkload(ctx context.Context, wr *os.File, w trace.Workload, n int) (records int, instructions int64, err error) {
	e, err := trace.NewEncoder(wr, w.Name, w.Suite, w.NumRecords(n))
	if err != nil {
		return 0, 0, err
	}
	// DefaultBatch-record chunks keep the ring's DefaultDepth+2 buffers
	// within about one DefaultChunk of memory.
	r, err := newChunkedReader(func() (trace.Iter, io.Closer, error) {
		return w.Iter(n), nil, nil
	}, trace.DefaultBatch)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	for {
		if cerr := ctx.Err(); cerr != nil {
			return records, instructions, cerr
		}
		c, ok := r.NextChunk()
		if !ok {
			break
		}
		if err := e.EncodeChunk(&c); err != nil {
			return records, instructions, err
		}
		records += c.Len()
		instructions += c.Instructions()
	}
	return records, instructions, e.Close()
}

// Materialize streams n records of w to path in the binary trace format,
// generating incrementally so the trace is never resident in memory; ctx
// aborts a long write. On any error (including cancellation) the partial
// output file is removed. It returns the record and instruction counts
// written.
func Materialize(ctx context.Context, path string, w trace.Workload, n int) (records int, instructions int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	records, instructions, err = encodeWorkload(ctx, f, w, n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, 0, err
	}
	return records, instructions, nil
}
