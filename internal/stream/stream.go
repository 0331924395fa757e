// Package stream delivers trace records to simulations in bounded memory.
//
// The seed architecture materialized every trace as an in-memory []Record
// before a simulation could start, which capped horizons at a few million
// records per core. This package decouples trace production from
// consumption (the vhive-invitro synthesizer split, applied to memory
// traces): a Source produces restartable trace.Readers on demand, and each
// reader pumps records through a bounded ring of reusable column chunks
// (trace.Chunk — SoA parallel slices) filled by a producer goroutine, so
// generation or file decode overlaps simulation and peak resident trace
// memory is capped at a handful of chunks regardless of trace length.
// Readers implement both the record-at-a-time trace.Reader face and the
// batched trace.ChunkReader fast path the fused simulation kernel
// consumes (DESIGN.md "The chunk-column contract").
//
// Two backends exist:
//
//   - GenSource replays the workload's deterministic generator on every
//     Open/Reset (a fresh Spec per pass, since actors carry state).
//   - FileSource streams the on-disk binary trace format incrementally,
//     resetting by reopening — cheap multi-core replay without re-running
//     the generator.
//
// Cache ties them together: a content-addressed on-disk trace cache
// (keyed by workload name, seed, length and generator version) with
// singleflight-deduplicated population, so repeated experiments and
// parallel workers share one generation pass and then stream from disk.
package stream

import (
	"io"

	"pythia/internal/trace"
)

// DefaultChunk is the default chunk size in records (608 KiB of columns
// per chunk at 19 B/record).
const DefaultChunk = 1 << 15

// DefaultDepth is the default chunk-ring depth: the producer may run at
// most this many chunks ahead of the consumer. Peak resident memory per
// reader is (depth+2) chunks — one being filled, the ring, one being
// drained.
const DefaultDepth = 2

// Reader is a restartable record stream that owns resources: a producer
// goroutine and possibly an open file. Callers must Close it when the
// simulation is done (Close is idempotent); cpu.System.Close does this for
// every core reader.
//
// Delivery can fail mid-stream (a cache file deleted or corrupted under a
// running simulation, a reset that cannot reopen its pass). Such failures
// surface through the read path, never as panics: Next returns ok == false
// and Err reports the sticky first error, distinguishing a failure from a
// genuine end of trace (Err == nil). Consumers must check Err before
// treating ok == false as EOF — the cpu driver does, and aborts the
// simulation with the error instead of silently truncating.
type Reader interface {
	trace.Reader
	io.Closer
	// Err returns the first delivery error, or nil if the stream has only
	// ever ended cleanly. It is sticky: once non-nil, Next keeps returning
	// false and Reset is a no-op.
	Err() error
}

// Source produces fresh Readers over one trace. A Source is cheap and
// stateless; all per-pass state lives in the Reader, so any number of
// cores can Open the same Source concurrently.
type Source interface {
	// Name identifies the underlying trace.
	Name() string
	// Open returns a new Reader positioned at the first record.
	Open() (Reader, error)
}

// SliceSource adapts an already-materialized trace to the Source
// interface, for callers that mix small in-memory traces with streamed
// ones.
type SliceSource struct {
	T *trace.Trace
}

// Name implements Source.
func (s *SliceSource) Name() string { return s.T.Name }

// Open implements Source.
func (s *SliceSource) Open() (Reader, error) {
	return nopCloserReader{trace.NewSliceReader(s.T.Records)}, nil
}

type nopCloserReader struct{ *trace.SliceReader }

func (nopCloserReader) Close() error { return nil }

func (nopCloserReader) Err() error { return nil }

func chunkOr(n int) int {
	if n <= 0 {
		return DefaultChunk
	}
	return n
}

func depthOr(n int) int {
	if n <= 0 {
		return DefaultDepth
	}
	return n
}
