// Package stream delivers trace records to simulations in bounded memory.
//
// The seed architecture materialized every trace as an in-memory []Record
// before a simulation could start, which capped horizons at a few million
// records per core. This package decouples trace production from
// consumption (the vhive-invitro synthesizer split, applied to memory
// traces): a Source produces restartable trace.ChunkReaders on demand,
// and each reader pumps records through a bounded ring of reusable column
// chunks (trace.Chunk — SoA parallel slices) filled by a producer
// goroutine, so generation or file decode overlaps simulation and peak
// resident trace memory is capped at a handful of chunks regardless of
// trace length. The fused simulation kernel consumes those chunks
// directly (DESIGN.md "Chunk-column contract").
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

import "pythia/internal/trace"

// DefaultChunk is the default chunk size in records (608 KiB of columns
// per chunk at 19 B/record).
const DefaultChunk = 1 << 15

// DefaultDepth is the chunk-ring depth: the producer may run at most
// this many chunks ahead of the consumer. Peak resident memory per
// reader is (depth+2) chunks — one being filled, the ring, one being
// drained.
const DefaultDepth = 2

// Source produces fresh readers over one trace. A Source is cheap and
// stateless; all per-pass state lives in the reader, so any number of
// cores can Open the same Source concurrently.
//
// Delivery can fail mid-stream (a cache file deleted or corrupted under a
// running simulation, a reset that cannot reopen its pass). Such failures
// surface through the read path, never as panics: NextChunk returns
// ok == false and Err reports the sticky first error, distinguishing a
// failure from a genuine end of trace (Err == nil). Callers must Close
// every reader they open; cpu.System.Close does this for every core.
type Source interface {
	// Name identifies the underlying trace.
	Name() string
	// Open returns a new reader positioned at the first record.
	Open() (trace.ChunkReader, error)
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
func (s *SliceSource) Open() (trace.ChunkReader, error) {
	return trace.NewSliceReader(s.T.Records), nil
}

func chunkOr(n int) int {
	if n <= 0 {
		return DefaultChunk
	}
	return n
}
