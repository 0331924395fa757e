package prefetch

import "math/bits"

// DSPatch implements the Dual Spatial Pattern prefetcher [Bera et al.,
// MICRO 2019]: per trigger-PC it maintains two bit patterns over 2KB
// regions — CovP (coverage-biased, OR of observed footprints) and AccP
// (accuracy-biased, AND of observed footprints) — and selects between them
// using the measured DRAM bandwidth: under low bandwidth pressure it
// prefetches the coverage pattern, under high pressure the accurate one.
// It is the one bandwidth-aware baseline in the paper's comparison set.

const dspatchRegionLines = 32

// DSPatchConfig tunes DSPatch.
type DSPatchConfig struct {
	// SPTSize is the signature pattern table size (power of two).
	SPTSize int
	// ATSize is the accumulation table size (power of two).
	ATSize int
	// HighBW is the bus-utilization threshold that switches to AccP.
	HighBW float64
}

// DefaultDSPatchConfig returns the published configuration scaled to the
// paper's 3.6KB budget.
func DefaultDSPatchConfig() DSPatchConfig {
	return DSPatchConfig{SPTSize: 256, ATSize: 64, HighBW: 0.5}
}

type dspatchSPT struct {
	pcTag uint64
	covP  uint32
	accP  uint32
	seen  uint8
	valid bool
}

type dspatchGen struct {
	regionTag uint64
	pc        uint64
	footprint uint32
	valid     bool
}

// DSPatch is the dual-pattern prefetcher.
type DSPatch struct {
	cfg DSPatchConfig
	sys System
	spt []dspatchSPT
	at  []dspatchGen
	buf []uint64
}

// NewDSPatch builds a DSPatch using sys for bandwidth feedback.
func NewDSPatch(cfg DSPatchConfig, sys System) *DSPatch {
	if cfg.SPTSize <= 0 || cfg.SPTSize&(cfg.SPTSize-1) != 0 {
		panic("prefetch: DSPatch SPT size must be a power of two")
	}
	if cfg.ATSize <= 0 || cfg.ATSize&(cfg.ATSize-1) != 0 {
		panic("prefetch: DSPatch AT size must be a power of two")
	}
	if sys == nil {
		sys = NilSystem()
	}
	return &DSPatch{cfg: cfg, sys: sys, spt: make([]dspatchSPT, cfg.SPTSize), at: make([]dspatchGen, cfg.ATSize)}
}

// Name implements Prefetcher.
func (d *DSPatch) Name() string { return "dspatch" }

func (d *DSPatch) sptSlot(pc uint64) *dspatchSPT {
	h := pc * 0x9E3779B97F4A7C15
	return &d.spt[h>>32&uint64(d.cfg.SPTSize-1)]
}

func (d *DSPatch) commit(g *dspatchGen) {
	if !g.valid || g.footprint == 0 {
		return
	}
	s := d.sptSlot(g.pc)
	if !s.valid || s.pcTag != g.pc {
		*s = dspatchSPT{pcTag: g.pc, covP: g.footprint, accP: g.footprint, seen: 1, valid: true}
		return
	}
	s.covP |= g.footprint
	s.accP &= g.footprint
	if s.accP == 0 {
		// AND collapsed: restart the accurate pattern from this footprint.
		s.accP = g.footprint
	}
	if s.seen < 255 {
		s.seen++
	}
	// Periodically decay CovP so it tracks the program phase.
	if s.seen%32 == 0 {
		s.covP = g.footprint | s.accP
	}
}

// Train implements Prefetcher.
func (d *DSPatch) Train(a Access) []uint64 {
	region := a.Line / dspatchRegionLines
	off := int(a.Line % dspatchRegionLines)
	slot := &d.at[region&uint64(d.cfg.ATSize-1)]

	if slot.valid && slot.regionTag == region {
		slot.footprint |= 1 << uint(off)
		return nil
	}
	d.commit(slot)
	*slot = dspatchGen{regionTag: region, pc: a.PC, footprint: 1 << uint(off), valid: true}

	s := d.sptSlot(a.PC)
	if !s.valid || s.pcTag != a.PC || s.seen < 2 {
		return nil
	}
	pattern := s.covP
	if d.sys.BandwidthUtil() >= d.cfg.HighBW {
		pattern = s.accP
	}
	if bits.OnesCount32(pattern) <= 1 {
		return nil
	}
	base := region * dspatchRegionLines
	out := d.buf[:0]
	for i := 0; i < dspatchRegionLines; i++ {
		if pattern&(1<<uint(i)) != 0 && i != off {
			out = append(out, base+uint64(i))
		}
	}
	d.buf = out
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (d *DSPatch) Fill(uint64) {}
