package stream

import (
	"fmt"
	"io"

	"pythia/internal/obs"
	"pythia/internal/trace"
)

// Pipeline metrics, shared across every reader in the process: ring
// occupancy says whether producers are keeping ahead of the simulators;
// the stall counters attribute any gap (producer stalls = simulation is
// the bottleneck and the ring is full; consumer stalls = trace delivery
// is the bottleneck and the ring ran dry).
var (
	obsChunks = obs.GetCounter("pythia_stream_chunks_total",
		"Record chunks delivered to consumers.", nil)
	obsRing = obs.GetGauge("pythia_stream_ring_occupancy",
		"Chunks currently queued in pipeline rings, all readers combined.", nil)
	obsProdStalls = obs.GetCounter("pythia_stream_producer_stalls_total",
		"Producer blocked on a full ring (consumer is the bottleneck).", nil)
	obsConsStalls = obs.GetCounter("pythia_stream_consumer_stalls_total",
		"Consumer blocked on an empty ring (trace delivery is the bottleneck).", nil)
)

// chunkedReader is the pipelined core of the package: a producer goroutine
// pulls records from a one-pass iterator and hands them to the consumer in
// chunks (trace.Chunk) through a bounded ring, recycling chunk buffers
// through a free list so steady-state streaming allocates nothing. Every
// producer (the generator, the file decoder, a fixed workload's records)
// appends straight onto the chunk.
//
// Memory bound: at most DefaultDepth+2 chunk buffers ever exist per
// reader — one in the producer's hands, up to DefaultDepth queued, one
// being drained by the consumer — regardless of trace length.
//
// Producer failures (a decode error on a file that changed under a running
// simulation, a reset that cannot reopen its pass) are carried through the
// pipe and surface on the consumer side as NextChunk() == false with a
// sticky Err(), never as a panic: the simulation driver owns the decision
// of what an unrecoverable trace means for the run.
type chunkedReader struct {
	// open starts a fresh pass over the records; the returned closer (may
	// be nil) releases pass-scoped resources (an open file) when the
	// producer exits.
	open  func() (trace.Iter, io.Closer, error)
	chunk int

	free chan *trace.Chunk // recycled chunk buffers; nil entry = allocate
	p    *pipe             // current producer generation, nil after EOF+Close

	cur    *trace.Chunk // chunk the consumer holds, recycled on the next call
	err    error        // sticky first delivery error
	closed bool
}

// pipe is one producer generation; Reset tears the old one down and starts
// a new one.
type pipe struct {
	ch   chan *trace.Chunk
	stop chan struct{}
	done chan struct{}
	// err is the producer's terminal error, written before ch is closed
	// (the close is the synchronization point, so the consumer may read it
	// after observing the closed channel).
	err error
}

func newChunkedReader(open func() (trace.Iter, io.Closer, error), chunk int) (*chunkedReader, error) {
	c := &chunkedReader{open: open, chunk: chunkOr(chunk)}
	c.free = make(chan *trace.Chunk, DefaultDepth+2)
	for i := 0; i < cap(c.free); i++ {
		c.free <- nil
	}
	if err := c.start(); err != nil {
		return nil, err
	}
	return c, nil
}

// start opens a fresh pass and launches its producer.
func (c *chunkedReader) start() error {
	it, cl, err := c.open()
	if err != nil {
		return err
	}
	p := &pipe{
		ch:   make(chan *trace.Chunk, DefaultDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.p = p
	go c.produce(p, it, cl)
	return nil
}

// produce fills chunks from it and sends them until EOF, a delivery error,
// or stop. Every buffer it takes from the free list goes back — either via
// the channel to the consumer or directly on the stop path — so the buffer
// population stays constant across any number of resets. An iterator error
// lands in p.err before the channel closes.
func (c *chunkedReader) produce(p *pipe, it trace.Iter, cl io.Closer) {
	defer close(p.done)
	defer close(p.ch)
	if cl != nil {
		defer cl.Close()
	}
	for {
		var buf *trace.Chunk
		select {
		case buf = <-c.free:
		case <-p.stop:
			return
		}
		if buf == nil {
			buf = trace.NewChunk(c.chunk)
		}
		buf.Reset()
		it.FillChunk(buf, c.chunk)
		ended := buf.Len() < c.chunk
		if buf.Len() == 0 {
			c.free <- buf
			p.err = iterErr(it)
			return
		}
		select {
		case p.ch <- buf:
			obsRing.Add(1)
		default:
			// Ring full: the consumer is the bottleneck right now. Count the
			// stall, then block until there is room (or the pass stops).
			obsProdStalls.Inc()
			select {
			case p.ch <- buf:
				obsRing.Add(1)
			case <-p.stop:
				c.free <- buf
				return
			}
		}
		if ended {
			p.err = iterErr(it)
			return
		}
	}
}

// iterErr extracts the terminal error from iterators that can fail
// (fileIter); generator-backed iterators cannot and report nil.
func iterErr(it trace.Iter) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// NextChunk implements trace.ChunkReader: it recycles the chunk handed
// out last and pulls the next one from the ring. The returned chunk is
// valid until the next NextChunk/Reset/Close call. At the end of a
// pass it returns false, setting the sticky error on failures.
func (c *chunkedReader) NextChunk() (trace.Chunk, bool) {
	if c.cur != nil {
		c.free <- c.cur
		c.cur = nil
	}
	if c.err != nil || c.p == nil {
		return nil, false
	}
	var buf *trace.Chunk
	var ok bool
	select {
	case buf, ok = <-c.p.ch:
	default:
		// Ring empty: trace delivery is the bottleneck right now. Count the
		// stall, then block until the producer catches up.
		obsConsStalls.Inc()
		buf, ok = <-c.p.ch
	}
	if !ok {
		// Producer finished; distinguish clean EOF from a delivery failure.
		if c.p.err != nil {
			c.err = c.p.err
		}
		return nil, false
	}
	obsRing.Add(-1)
	obsChunks.Inc()
	c.cur = buf
	return *buf, true
}

// Err implements trace.ChunkReader: the sticky first delivery error, nil
// on clean streams.
func (c *chunkedReader) Err() error { return c.err }

// Reset implements trace.ChunkReader: it stops the current pass and
// starts a fresh one from the first record. The multi-core driver calls
// this to replay traces for cores that finish early. Reset on a closed or
// failed reader is a no-op; a failure to reopen the underlying pass (e.g.
// a cache file deleted mid-simulation) is recorded in Err and subsequent
// NextChunk calls return false, so the driver observes the failure on its
// next read instead of a panic.
func (c *chunkedReader) Reset() {
	if c.closed || c.err != nil {
		return
	}
	c.stopPipe()
	if err := c.start(); err != nil {
		c.err = fmt.Errorf("stream: reset: %w", err)
	}
}

// Close implements trace.ChunkReader; it terminates the producer and
// releases its resources. Idempotent.
func (c *chunkedReader) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.stopPipe()
	return nil
}

// stopPipe tears down the current producer generation, reclaiming every
// chunk buffer back into the free list.
func (c *chunkedReader) stopPipe() {
	if c.p == nil {
		return
	}
	close(c.p.stop)
	// The producer may be blocked sending; drain until it closes the
	// channel, recycling in-flight chunks.
	for buf := range c.p.ch {
		c.free <- buf
		obsRing.Add(-1)
	}
	<-c.p.done
	c.p = nil
	if c.cur != nil {
		c.free <- c.cur
		c.cur = nil
	}
}
