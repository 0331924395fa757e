// Package core implements Pythia, the paper's contribution: a hardware
// prefetcher formulated as a reinforcement-learning agent. For every demand
// request the agent extracts a multi-feature state vector, picks a prefetch
// offset action via an ε-greedy policy over a tile-coded hierarchical
// Q-value store (QVStore), and learns online with SARSA from discrete,
// bandwidth-aware reward levels assigned through an evaluation queue (EQ).
package core

import (
	"fmt"

	"pythia/internal/mem"
)

// ControlFlow enumerates the program control-flow components of a feature
// (paper Table 3).
type ControlFlow uint8

const (
	// CFNone contributes no control-flow information.
	CFNone ControlFlow = iota
	// CFPC is the PC of the load.
	CFPC
	// CFPCPath is the XOR of the last 3 load PCs.
	CFPCPath
	// CFPCXorPrev approximates "PC XOR branch-PC" with the XOR of the
	// current and previous distinct load PCs (traces carry no branch PCs;
	// see DESIGN.md).
	CFPCXorPrev
)

// ControlFlows lists all control-flow components.
func ControlFlows() []ControlFlow { return []ControlFlow{CFNone, CFPC, CFPCPath, CFPCXorPrev} }

// String implements fmt.Stringer.
func (c ControlFlow) String() string {
	switch c {
	case CFNone:
		return "None"
	case CFPC:
		return "PC"
	case CFPCPath:
		return "PC-path"
	case CFPCXorPrev:
		return "PC^prevPC"
	default:
		return "?"
	}
}

// DataFlow enumerates the program data-flow components of a feature
// (paper Table 3).
type DataFlow uint8

const (
	// DFNone contributes no data-flow information.
	DFNone DataFlow = iota
	// DFAddress is the demanded cacheline address.
	DFAddress
	// DFPageNum is the physical page number.
	DFPageNum
	// DFOffset is the in-page line offset.
	DFOffset
	// DFDelta is the in-page cacheline delta from the previous access to
	// the same page.
	DFDelta
	// DFLast4Offsets is the sequence of the last 4 offsets.
	DFLast4Offsets
	// DFLast4Deltas is the sequence of the last 4 deltas.
	DFLast4Deltas
	// DFOffsetXorDelta is the offset XOR-ed with the delta.
	DFOffsetXorDelta
)

// DataFlows lists all data-flow components.
func DataFlows() []DataFlow {
	return []DataFlow{DFNone, DFAddress, DFPageNum, DFOffset, DFDelta,
		DFLast4Offsets, DFLast4Deltas, DFOffsetXorDelta}
}

// String implements fmt.Stringer.
func (d DataFlow) String() string {
	switch d {
	case DFNone:
		return "None"
	case DFAddress:
		return "Address"
	case DFPageNum:
		return "PageNum"
	case DFOffset:
		return "Offset"
	case DFDelta:
		return "Delta"
	case DFLast4Offsets:
		return "Last4Offsets"
	case DFLast4Deltas:
		return "Last4Deltas"
	case DFOffsetXorDelta:
		return "Offset^Delta"
	default:
		return "?"
	}
}

// Feature is one program feature: the concatenation of a control-flow and a
// data-flow component (§4.3.1 derives 32 such features).
type Feature struct {
	CF ControlFlow
	DF DataFlow
}

// String implements fmt.Stringer.
func (f Feature) String() string {
	switch {
	case f.CF == CFNone && f.DF == DFNone:
		return "Empty"
	case f.CF == CFNone:
		return f.DF.String()
	case f.DF == DFNone:
		return f.CF.String()
	default:
		return fmt.Sprintf("%s+%s", f.CF, f.DF)
	}
}

// AllFeatures enumerates the 32-feature exploration space of §4.3.1.
func AllFeatures() []Feature {
	var out []Feature
	for _, cf := range ControlFlows() {
		for _, df := range DataFlows() {
			out = append(out, Feature{cf, df})
		}
	}
	return out
}

// Canonical features used by the basic configuration (Table 2).
var (
	// FeaturePCDelta is "PC+Delta".
	FeaturePCDelta = Feature{CFPC, DFDelta}
	// FeatureLast4Deltas is "Sequence of last-4 deltas".
	FeatureLast4Deltas = Feature{CFNone, DFLast4Deltas}
)

// State captures the program context of one demand request, from which all
// feature values derive.
type State struct {
	PC     uint64
	Line   uint64
	Page   uint64
	Offset int
	Delta  int // in-page delta vs. previous access to the same page (0 on first touch)

	PCPath      uint64 // XOR of last 3 PCs
	PrevPC      uint64
	LastOffsets [4]int
	LastDeltas  [4]int
}

// Value computes the feature's value for a state. Values feed the tile-coded
// QVStore index hashes; they only need to be deterministic and well mixed.
func (f Feature) Value(s *State) uint64 {
	var cf uint64
	switch f.CF {
	case CFPC:
		cf = s.PC
	case CFPCPath:
		cf = s.PCPath
	case CFPCXorPrev:
		cf = s.PC ^ s.PrevPC
	}
	var df uint64
	switch f.DF {
	case DFAddress:
		df = s.Line
	case DFPageNum:
		df = s.Page
	case DFOffset:
		df = uint64(s.Offset)
	case DFDelta:
		df = uint64(uint8(int8(s.Delta))) // signed delta folded to 8 bits
	case DFLast4Offsets:
		for i, o := range s.LastOffsets {
			df |= uint64(uint8(o)) << (8 * uint(i))
		}
	case DFLast4Deltas:
		for i, d := range s.LastDeltas {
			df |= uint64(uint8(int8(d))) << (8 * uint(i))
		}
	case DFOffsetXorDelta:
		df = uint64(s.Offset) ^ uint64(uint8(int8(s.Delta)))
	}
	// Concatenate: keep the components in disjoint bit ranges before the
	// QVStore's per-plane hashing mixes them.
	return cf<<32 ^ df ^ cf>>29
}

// Tracker derives State from the raw demand stream: it keeps per-page last
// offsets (for deltas) plus global PC/offset/delta history.
type Tracker struct {
	pages  []trackerPage
	mask   uint64
	pcs    [3]uint64
	prevPC uint64
}

// trackerPage is one tracked page, 24 bytes: in-page offsets (0..63) and
// deltas (-63..63) fit an int8, which keeps the table small enough to stay
// cache-resident next to the simulator's own state.
type trackerPage struct {
	tag   uint64
	valid bool
	// Per-page histories, most recent first: the paper's delta/offset
	// sequence features are page-local (interleaved pages would otherwise
	// scramble them). offsets[0] is the page's last offset.
	offsets [4]int8
	deltas  [4]int8
}

// NewTracker builds a tracker following `pages` concurrent pages (power of
// two).
func NewTracker(pages int) *Tracker {
	if pages <= 0 || pages&(pages-1) != 0 {
		panic("core: tracker page count must be a power of two")
	}
	return &Tracker{pages: make([]trackerPage, pages), mask: uint64(pages - 1)}
}

// Observe folds one demand access into the history and writes the state
// to s.
func (t *Tracker) Observe(pc, line uint64, s *State) {
	page := mem.PageOfLine(line)
	off := mem.LineOffsetOfLine(line)

	delta := 0
	e := &t.pages[page&t.mask]
	if e.valid && e.tag == page {
		delta = off - int(e.offsets[0])
	} else {
		// New page (or tracker eviction): page-local histories restart.
		*e = trackerPage{tag: page, valid: true}
	}

	prevPC := t.prevPC
	if t.pcs[0] != pc {
		t.prevPC = t.pcs[0]
		prevPC = t.prevPC
	}

	// Histories include the current access (most recent in slot 0), so a
	// feature like "last-4 deltas" is the SPP-style signature ending at the
	// current request. Delta and offset sequences are page-local.
	copy(t.pcs[1:], t.pcs[:2])
	t.pcs[0] = pc
	copy(e.offsets[1:], e.offsets[:3])
	e.offsets[0] = int8(off)
	copy(e.deltas[1:], e.deltas[:3])
	e.deltas[0] = int8(delta)

	s.PC = pc
	s.Line = line
	s.Page = page
	s.Offset = off
	s.Delta = delta
	s.PCPath = t.pcs[0] ^ t.pcs[1] ^ t.pcs[2]
	s.PrevPC = prevPC
	for i := range e.offsets {
		s.LastOffsets[i] = int(e.offsets[i])
		s.LastDeltas[i] = int(e.deltas[i])
	}
}
