// Package trace defines the memory-access trace format consumed by the
// simulator and provides deterministic synthetic workload generators that
// stand in for the paper's SPEC CPU2006/2017, PARSEC, Ligra, Cloudsuite and
// CVP-2 instruction traces (see DESIGN.md for the substitution rationale).
//
// A trace is a sequence of Records. Each record is one memory instruction
// (load or store) annotated with the number of non-memory instructions that
// execute before it. The core timing model replays records to compute IPC.
package trace

import "fmt"

// Record is one memory instruction in a trace.
type Record struct {
	// PC is the program counter of the memory instruction.
	PC uint64
	// Addr is the accessed virtual byte address.
	Addr uint64
	// NonMem is the number of non-memory instructions that precede this
	// access since the previous record.
	NonMem uint16
	// Store marks the access as a write.
	Store bool
}

// Instructions returns the instruction count the record contributes
// (the access itself plus the preceding non-memory instructions).
func (r Record) Instructions() int64 { return int64(r.NonMem) + 1 }

// Trace is a fully materialized workload trace.
type Trace struct {
	// Name identifies the trace (e.g. "459.GemsFDTD-765B").
	Name string
	// Suite is the benchmark suite the trace belongs to.
	Suite string
	// Records holds the access sequence.
	Records []Record
}

// Instructions returns the total instruction count of the trace.
func (t *Trace) Instructions() int64 {
	var n int64
	for _, r := range t.Records {
		n += r.Instructions()
	}
	return n
}

// String implements fmt.Stringer.
func (t *Trace) String() string {
	return fmt.Sprintf("%s/%s (%d accesses)", t.Suite, t.Name, len(t.Records))
}

// Iter yields trace records once, a run at a time: the minimal producer
// interface that generators, file decoders and slices share. Streaming
// sources (internal/stream) build restartable ChunkReaders out of Iters.
type Iter interface {
	// FillChunk appends up to max records onto c and returns how many
	// it appended; fewer than max means the pass ended or failed
	// (iterators that can fail expose Err).
	FillChunk(c *Chunk, max int) int
}

// SliceReader is the ChunkReader over a materialized record slice. It
// reads the caller's records in place: nothing proportional to the trace
// is copied at construction, on Reset (a cursor rewind) or by NextChunk,
// which returns a window of the slice, so any number of readers can
// replay one resident trace. A SliceReader cannot fail and holds nothing
// to release.
type SliceReader struct {
	recs  []Record
	pos   int
	batch int // NextChunk batch size; 0 = DefaultBatch
}

// NewSliceReader returns a reader over recs. The reader keeps recs rather
// than a copy, so the caller must not mutate them while reading.
func NewSliceReader(recs []Record) *SliceReader {
	return &SliceReader{recs: recs}
}

// NextChunk implements ChunkReader: it returns the next batch of the
// caller's records as a window whose capacity ends at its length, so an
// append to it cannot write into the records that follow.
func (s *SliceReader) NextChunk() (Chunk, bool) {
	n := len(s.recs) - s.pos
	if n <= 0 {
		return nil, false
	}
	b := s.batch
	if b <= 0 {
		b = DefaultBatch
	}
	n = min(n, b)
	c := Chunk(s.recs[s.pos : s.pos+n : s.pos+n])
	s.pos += n
	return c, true
}

// SetBatch sets the batch size NextChunk serves (n <= 0 restores
// DefaultBatch). Batch size is delivery granularity only; it never changes
// the record sequence.
func (s *SliceReader) SetBatch(n int) { s.batch = n }

// Reset implements ChunkReader.
func (s *SliceReader) Reset() { s.pos = 0 }

// Err implements ChunkReader: a slice cannot fail.
func (s *SliceReader) Err() error { return nil }

// Close implements ChunkReader: a slice holds nothing to release.
func (s *SliceReader) Close() error { return nil }
