package prefetch

import "pythia/internal/mem"

// Stride is the classic PC-based stride prefetcher [Fu & Patel; Jouppi]:
// a table indexed by load PC tracks the last address and the stride between
// consecutive accesses by the same PC; confident strides trigger prefetches
// a configurable degree ahead. The paper uses it as the L1 prefetcher in
// multi-level configurations (Fig. 8d) and as the "St" component of the
// hybrid stacks (Fig. 9b).
type Stride struct {
	degree  int
	entries []strideEntry
	mask    uint64
	buf     []uint64
}

type strideEntry struct {
	tag      uint64
	lastLine uint64
	stride   int64
	conf     int8
	valid    bool
}

// NewStride builds a stride prefetcher with the given table size (power of
// two) and prefetch degree.
func NewStride(tableSize, degree int) *Stride {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("prefetch: stride table size must be a power of two")
	}
	if degree <= 0 {
		degree = 2
	}
	return &Stride{degree: degree, entries: make([]strideEntry, tableSize), mask: uint64(tableSize - 1)}
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "stride" }

// Train implements Prefetcher.
func (s *Stride) Train(a Access) []uint64 {
	e := &s.entries[(a.PC>>2)&s.mask]
	if !e.valid || e.tag != a.PC {
		*e = strideEntry{tag: a.PC, lastLine: a.Line, valid: true}
		return nil
	}
	delta := int64(a.Line) - int64(e.lastLine)
	e.lastLine = a.Line
	if delta == 0 {
		return nil
	}
	if delta == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		}
		if e.conf == 0 {
			e.stride = delta
		}
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	out := s.buf[:0]
	next := a.Line
	for i := 0; i < s.degree; i++ {
		next = uint64(int64(next) + e.stride)
		out = append(out, next)
	}
	s.buf = out
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (s *Stride) Fill(uint64) {}

// NextLine prefetches the next sequential line(s); the simplest useful
// baseline and a building block for tests.
type NextLine struct {
	degree int
	buf    []uint64
}

// NewNextLine builds a next-line prefetcher of the given degree.
func NewNextLine(degree int) *NextLine {
	if degree <= 0 {
		degree = 1
	}
	return &NextLine{degree: degree}
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "nextline" }

// Train implements Prefetcher.
func (n *NextLine) Train(a Access) []uint64 {
	out := n.buf[:0]
	for i := 1; i <= n.degree; i++ {
		out = append(out, a.Line+uint64(i))
	}
	n.buf = out
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (n *NextLine) Fill(uint64) {}

// Streamer is an L2 stream prefetcher in the style of commercial cores
// [Chen & Baer '95; Intel's L2 streamer]: it detects monotonic access
// streams within a page and runs a configurable distance ahead in the
// detected direction.
type Streamer struct {
	depth   int
	entries []streamEntry
	mask    uint64
	buf     []uint64
}

type streamEntry struct {
	page    uint64
	lastOff int
	dir     int8
	conf    int8
	valid   bool
}

// NewStreamer builds a streamer tracking `streams` concurrent pages running
// `depth` lines ahead.
func NewStreamer(streams, depth int) *Streamer {
	if streams <= 0 || streams&(streams-1) != 0 {
		panic("prefetch: streamer table size must be a power of two")
	}
	if depth <= 0 {
		depth = 4
	}
	return &Streamer{depth: depth, entries: make([]streamEntry, streams), mask: uint64(streams - 1)}
}

// Name implements Prefetcher.
func (s *Streamer) Name() string { return "streamer" }

// SetDepth adjusts the stream run-ahead distance (used by the POWER7-style
// adaptive wrapper).
func (s *Streamer) SetDepth(d int) {
	if d < 0 {
		d = 0
	}
	s.depth = d
}

// Depth returns the current run-ahead distance.
func (s *Streamer) Depth() int { return s.depth }

// Train implements Prefetcher.
func (s *Streamer) Train(a Access) []uint64 {
	page := mem.PageOfLine(a.Line)
	off := mem.LineOffsetOfLine(a.Line)
	e := &s.entries[page&s.mask]
	if !e.valid || e.page != page {
		*e = streamEntry{page: page, lastOff: off, valid: true}
		return nil
	}
	d := off - e.lastOff
	e.lastOff = off
	if d == 0 {
		return nil
	}
	dir := int8(1)
	if d < 0 {
		dir = -1
	}
	if dir == e.dir {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.dir = dir
		e.conf = 1
		return nil
	}
	if e.conf < 2 || s.depth == 0 {
		return nil
	}
	out := s.buf[:0]
	for i := 1; i <= s.depth; i++ {
		out = append(out, uint64(int64(a.Line)+int64(i)*int64(dir)))
	}
	s.buf = out
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (s *Streamer) Fill(uint64) {}
