package trace

// The batched record path. A Chunk is a window of consecutive records,
// the same layout a resident trace has: a SliceReader serves windows of
// the caller's records in place, and producers (generator, file decoder)
// append straight onto a recycled chunk. The simulation kernel walks a
// whole chunk per step with no per-record interface call. DESIGN.md
// "Chunk contract" documents the invariants.

// DefaultBatch is the batch size a SliceReader serves unless SetBatch
// picks another, and the chunk size of trace-cache fills. It matches the
// working-set goal of the stream pipeline's chunks: large enough to
// amortize per-batch costs to noise, small enough to stay cache-resident
// alongside the simulator's own state.
const DefaultBatch = 1 << 13

// Chunk is a batch of consecutive records. Producers append to it (a
// *Chunk), consumers index it.
type Chunk []Record

// NewChunk returns an empty chunk with capacity for n records.
func NewChunk(n int) *Chunk {
	c := make(Chunk, 0, n)
	return &c
}

// Len returns the number of records in the chunk.
func (c Chunk) Len() int { return len(c) }

// Reset truncates the chunk to zero length, keeping its capacity, so
// chunk buffers recycle through free lists without reallocating.
func (c *Chunk) Reset() { *c = (*c)[:0] }

// Instructions returns the total instruction count of the chunk's
// records (each record counts its access plus its NonMem gap).
func (c Chunk) Instructions() int64 {
	n := int64(len(c))
	for i := range c {
		n += int64(c[i].NonMem)
	}
	return n
}

// ChunkReader is the one contract between trace delivery and the
// simulation kernel. NextChunk delivers the next run of records; ok ==
// false ends the pass, and Err tells a delivery failure (non-nil) from a
// clean end of trace (nil). Reset restarts the trace from its first
// record, which the multi-core driver uses to replay traces for cores
// that finish early (per the paper's methodology). Close releases what
// the reader holds (a producer goroutine, an open file); it is
// idempotent.
//
// The returned chunk is read-only and valid only until the next
// NextChunk, Reset or Close call on the same reader: implementations
// recycle chunk buffers or serve windows of a resident trace.
type ChunkReader interface {
	NextChunk() (Chunk, bool)
	Reset()
	Err() error
	Close() error
}

// FillChunk appends up to max records from it to c and returns the number
// appended: it.FillChunk as a function.
func FillChunk(it Iter, c *Chunk, max int) int { return it.FillChunk(c, max) }
