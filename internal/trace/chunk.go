package trace

// The batched (SoA) record path. A Chunk carries a batch of records as
// parallel column slices instead of a []Record: the simulation kernel
// walks dense uint64/uint16/bool columns with no per-record interface
// call and no 26-byte struct copies, and producers (generator, file
// decoder) append straight into the columns without ever materializing
// an intermediate []Record. PERF.md "Batched SoA kernel" documents the
// layout invariants and the measured effect.

// DefaultBatch is the column-batch size NewChunkingReader uses when the
// caller does not specify one. It matches the working-set goal of the
// stream pipeline's chunks: large enough to amortize per-batch costs to
// noise, small enough to stay cache-resident alongside the simulator's
// own state.
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

// Tail returns a view of the records from i on. The view shares the
// underlying column arrays; it is valid exactly as long as the chunk it
// was taken from.
func (c *Chunk) Tail(i int) Chunk {
	return Chunk{PC: c.PC[i:], Addr: c.Addr[i:], NonMem: c.NonMem[i:], Store: c.Store[i:]}
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

// ChunkReader is the batched fast path over Reader: NextChunk delivers
// the next run of records as a column view, and ok == false signals the
// end of the pass (or a delivery failure, distinguished by the reader's
// Err method where one exists — exactly as with Next).
//
// The returned chunk is valid only until the next NextChunk, Next, Reset
// or Close call on the same reader: implementations recycle column
// buffers. Mixing Next and NextChunk on one reader is allowed and never
// skips or duplicates records — NextChunk first drains whatever the
// record-at-a-time path left unconsumed in the current batch.
type ChunkReader interface {
	Reader
	NextChunk() (Chunk, bool)
}

// ChunkFiller is implemented by one-pass iterators (the workload
// generator, the file decoder) that can append records directly to a
// chunk's columns, letting producers fill batches without a per-record
// interface call. FillChunk appends up to max records and returns how
// many were appended; fewer than max means the pass ended or failed
// (iterators that can fail expose Err, as with Iter).
type ChunkFiller interface {
	FillChunk(c *Chunk, max int) int
}

// FillChunk appends up to max records from it to c, using the iterator's
// direct column path when it has one and falling back to per-record Next
// calls otherwise. It returns the number of records appended.
func FillChunk(it Iter, c *Chunk, max int) int {
	if f, ok := it.(ChunkFiller); ok {
		return f.FillChunk(c, max)
	}
	n := 0
	for n < max {
		rec, ok := it.Next()
		if !ok {
			break
		}
		c.Append(rec)
		n++
	}
	return n
}

// chunkingReader adapts a record-at-a-time Reader to the ChunkReader
// fast path by batching Next calls into an internal column buffer. It is
// how the simulation kernel consumes readers that have no native batch
// path (test readers, record-at-a-time adapters): the record sequence is
// exactly the wrapped reader's, delivered batch-wise.
type chunkingReader struct {
	r   Reader
	buf *Chunk
}

// NewChunkingReader returns a ChunkReader over r with batches of up to
// chunk records (chunk <= 0 selects DefaultBatch).
func NewChunkingReader(r Reader, chunk int) ChunkReader {
	if chunk <= 0 {
		chunk = DefaultBatch
	}
	return &chunkingReader{r: r, buf: NewChunk(chunk)}
}

// Next implements Reader by delegating to the wrapped reader.
func (a *chunkingReader) Next() (Record, bool) { return a.r.Next() }

// Reset implements Reader.
func (a *chunkingReader) Reset() { a.r.Reset() }

// Err surfaces the wrapped reader's delivery error, if it has one.
func (a *chunkingReader) Err() error {
	if e, ok := a.r.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// NextChunk implements ChunkReader.
func (a *chunkingReader) NextChunk() (Chunk, bool) {
	a.buf.Reset()
	for a.buf.Len() < cap(a.buf.PC) {
		rec, ok := a.r.Next()
		if !ok {
			break
		}
		a.buf.Append(rec)
	}
	if a.buf.Len() == 0 {
		return Chunk{}, false
	}
	return *a.buf, true
}
