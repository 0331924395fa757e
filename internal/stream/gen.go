package stream

import (
	"io"

	"pythia/internal/trace"
)

// GenSource streams a workload's deterministic generator: each Open (and
// each Reset of an open reader) replays the generator from a fresh Spec,
// producing exactly the record sequence Workload.Generate(N) would
// materialize — without ever holding more than the chunk ring in memory.
// Generation runs in the reader's producer goroutine, overlapping the
// simulation that consumes it.
type GenSource struct {
	W trace.Workload
	// N is the trace length in records (Workload.Generate's n).
	N int
	// Chunk is records per pipeline chunk (0 = DefaultChunk).
	Chunk int
}

// Name implements Source.
func (s *GenSource) Name() string { return s.W.Name }

// Open implements Source.
func (s *GenSource) Open() (trace.ChunkReader, error) {
	return newChunkedReader(func() (trace.Iter, io.Closer, error) {
		return s.W.Iter(s.N), nil, nil
	}, s.Chunk)
}
