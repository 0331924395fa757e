package trace

// The batched (SoA) record path. A Chunk carries a batch of records as
// parallel column slices instead of a []Record: the simulation kernel
// walks dense uint64/uint16/bool columns with no per-record interface
// call and no 26-byte struct copies, and producers (generator, file
// decoder) append straight into the columns without ever materializing
// an intermediate []Record. PERF.md "Batched SoA kernel" documents the
// layout invariants and the measured effect.

// DefaultBatch is the column-batch size a SliceReader serves unless
// SetBatch picks another, and the chunk size of trace-cache fills. It
// matches the working-set goal of the stream pipeline's chunks: large
// enough to amortize per-batch costs to noise, small enough to stay
// cache-resident alongside the simulator's own state.
const DefaultBatch = 1 << 13

// Chunk is a batch of records in column (SoA) layout. All four columns
// always have equal length; index i across the columns is record i.
// Chunks are plain data: producers fill them with Append (or column-wise
// writes that keep the equal-length invariant), consumers index the
// columns directly.
type Chunk struct {
	PC     []uint64
	Addr   []uint64
	NonMem []uint16
	Store  []bool
}

// NewChunk returns an empty chunk with capacity for n records per column.
func NewChunk(n int) *Chunk {
	return &Chunk{
		PC:     make([]uint64, 0, n),
		Addr:   make([]uint64, 0, n),
		NonMem: make([]uint16, 0, n),
		Store:  make([]bool, 0, n),
	}
}

// Len returns the number of records in the chunk.
func (c *Chunk) Len() int { return len(c.PC) }

// Reset truncates all columns to zero length, keeping their capacity, so
// chunk buffers recycle through free lists without reallocating.
func (c *Chunk) Reset() {
	c.PC = c.PC[:0]
	c.Addr = c.Addr[:0]
	c.NonMem = c.NonMem[:0]
	c.Store = c.Store[:0]
}

// Append adds one record to the columns.
func (c *Chunk) Append(r Record) {
	c.PC = append(c.PC, r.PC)
	c.Addr = append(c.Addr, r.Addr)
	c.NonMem = append(c.NonMem, r.NonMem)
	c.Store = append(c.Store, r.Store)
}

// At returns record i assembled from the columns.
func (c *Chunk) At(i int) Record {
	return Record{PC: c.PC[i], Addr: c.Addr[i], NonMem: c.NonMem[i], Store: c.Store[i]}
}

// Instructions returns the total instruction count of the chunk's
// records (each record counts its access plus its NonMem gap).
func (c *Chunk) Instructions() int64 {
	n := int64(len(c.NonMem))
	for _, g := range c.NonMem {
		n += int64(g)
	}
	return n
}

// ChunkReader is the one contract between trace delivery and the
// simulation kernel. NextChunk delivers the next run of records as a
// column view; ok == false ends the pass, and Err tells a delivery
// failure (non-nil) from a clean end of trace (nil). Reset restarts the
// trace from its first record, which the multi-core driver uses to replay
// traces for cores that finish early (per the paper's methodology).
// Close releases what the reader holds (a producer goroutine, an open
// file); it is idempotent.
//
// The returned chunk is valid only until the next NextChunk, Reset or
// Close call on the same reader: implementations recycle column buffers.
type ChunkReader interface {
	NextChunk() (Chunk, bool)
	Reset()
	Err() error
	Close() error
}

// FillChunk appends up to max records from it to c and returns the number
// appended: it.FillChunk as a function.
func FillChunk(it Iter, c *Chunk, max int) int { return it.FillChunk(c, max) }
