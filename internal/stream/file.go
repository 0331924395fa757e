package stream

import (
	"fmt"
	"io"
	"os"
	"sync"

	"pythia/internal/fault"
	"pythia/internal/trace"
)

// FPDecode is the failpoint inside the trace decode loop; arming it
// simulates a file corrupting under a running simulation. Decode
// failures are permanent by classification: the same file will fail the
// same way, so retrying the job cannot help.
const FPDecode = "stream.decode"

// FileSource streams a trace file written in the binary trace format
// (trace.Encoder). Decoding is incremental through the chunk pipeline, so
// opening a multi-gigabyte trace costs a header read; Reset reopens the
// file, which makes multi-core replay cheap compared to re-running a
// generator. A FileSource may be Opened concurrently (each reader owns its
// own file descriptor).
type FileSource struct {
	Path string
	// Chunk is records per pipeline chunk (0 = DefaultChunk).
	Chunk int

	nameOnce sync.Once
	name     string
}

// Name implements Source. It returns the trace name from the file header,
// falling back to the path when the header is unreadable.
func (s *FileSource) Name() string {
	s.nameOnce.Do(func() {
		s.name = s.Path
		f, err := os.Open(s.Path)
		if err != nil {
			return
		}
		defer f.Close()
		if d, err := trace.NewDecoder(f); err == nil {
			s.name = d.Name()
		}
	})
	return s.name
}

// Open implements Source.
func (s *FileSource) Open() (trace.ChunkReader, error) {
	// Validate eagerly so a missing or corrupt file fails at Open, not
	// inside the producer.
	it, cl, err := s.openPass()
	if err != nil {
		return nil, err
	}
	first := true
	return newChunkedReader(func() (trace.Iter, io.Closer, error) {
		if first {
			first = false
			return it, cl, nil
		}
		return s.openPass()
	}, s.Chunk)
}

func (s *FileSource) openPass() (trace.Iter, io.Closer, error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, nil, err
	}
	d, err := trace.NewDecoder(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("stream: %s: %w", s.Path, err)
	}
	return &fileIter{d: d, path: s.Path}, f, nil
}

// fileIter adapts a Decoder to trace.Iter. A decode error mid-stream means
// the file changed or corrupted under a running simulation, whose results
// would silently be garbage — so the error is recorded and surfaced
// through the reader's Err path (the driver aborts the run) rather than
// truncating the stream or panicking.
type fileIter struct {
	d    *trace.Decoder
	path string
	err  error
}

// FillChunk implements trace.Iter: a run of up to max records
// decodes straight onto the chunk's columns (Decoder.DecodeChunk), never
// materializing a Record between disk and ring. While any failpoint is
// armed, FPDecode is still consulted once per record, before the run
// decodes: fault specs count hits in records, and a "file corrupted
// mid-stream" must be able to land mid-chunk, after exactly the records
// the spec lets through.
func (it *fileIter) FillChunk(c *trace.Chunk, max int) int {
	if it.err != nil {
		return 0
	}
	max = int(min(int64(max), it.d.Remaining()))
	var ferr error
	for k := 0; k < max && fault.Armed(); k++ {
		if ferr = fault.Hit(FPDecode); ferr != nil {
			max = k
			break
		}
	}
	n, err := it.d.DecodeChunk(c, max)
	if err == nil {
		err = ferr
	}
	if err != nil {
		it.err = fmt.Errorf("stream: decoding %s: %w", it.path, err)
	}
	return n
}

// Err reports the sticky decode error; the chunk pipeline's producer
// forwards it to the consumer side.
func (it *fileIter) Err() error { return it.err }
