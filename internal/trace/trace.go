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

// Iter yields trace records one at a time, once: the minimal producer
// interface that generators, file decoders and slices share. Streaming
// sources (internal/stream) build restartable Readers out of Iters.
type Iter interface {
	// Next returns the next record. ok is false when the trace is exhausted.
	Next() (rec Record, ok bool)
}

// Reader yields trace records one at a time and can restart from the
// beginning, which the multi-core driver uses to replay traces for cores
// that finish early (per the paper's methodology).
type Reader interface {
	Iter
	// Reset restarts the reader from the first record.
	Reset()
}

// SliceReader adapts a materialized record slice to the Reader interface.
// It reads the caller's records in place: nothing proportional to the
// trace is copied at construction or on Reset (a cursor rewind), so any
// number of readers can replay one resident trace. NextChunk transposes
// at most one batch into a column buffer the reader owns and reuses
// across calls, which the ChunkReader contract allows: a chunk lives only
// until the next NextChunk, Next or Reset.
type SliceReader struct {
	recs  []Record
	pos   int
	batch int   // NextChunk batch size; 0 = DefaultBatch
	buf   Chunk // NextChunk's reused column buffer
}

// NewSliceReader returns a Reader over recs. The reader keeps recs rather
// than a copy, so the caller must not mutate them while reading.
func NewSliceReader(recs []Record) *SliceReader {
	return &SliceReader{recs: recs}
}

// Next implements Reader.
func (s *SliceReader) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// NextChunk implements ChunkReader: it transposes the next batch of
// records into the reader's column buffer and returns a view of it, valid
// until the next NextChunk, Next or Reset call.
func (s *SliceReader) NextChunk() (Chunk, bool) {
	n := len(s.recs) - s.pos
	if n <= 0 {
		return Chunk{}, false
	}
	b := s.batch
	if b <= 0 {
		b = DefaultBatch
	}
	if n > b {
		n = b
	}
	c := &s.buf
	if cap(c.PC) < n {
		*c = *NewChunk(min(b, len(s.recs)))
	}
	c.PC, c.Addr, c.NonMem, c.Store = c.PC[:n], c.Addr[:n], c.NonMem[:n], c.Store[:n]
	for i, r := range s.recs[s.pos : s.pos+n] {
		c.PC[i] = r.PC
		c.Addr[i] = r.Addr
		c.NonMem[i] = r.NonMem
		c.Store[i] = r.Store
	}
	s.pos += n
	return *c, true
}

// SetBatch sets the batch size NextChunk serves (n <= 0 restores
// DefaultBatch). Batch size is delivery granularity only; it never changes
// the record sequence.
func (s *SliceReader) SetBatch(n int) { s.batch = n }

// Reset implements Reader.
func (s *SliceReader) Reset() { s.pos = 0 }

// Len returns the number of records in the trace.
func (s *SliceReader) Len() int { return len(s.recs) }
