package prefetch

import "math/bits"

// Bingo implements the Bingo spatial data prefetcher [Bakhshalipour et al.,
// HPCA 2019]: it records the footprint (bit pattern of accessed lines) of
// each spatial region and associates it with both a long event (PC+Address
// of the trigger access) and a short event (PC+Offset). On a region trigger
// it looks up the history with the long event first, falling back to the
// short one, and prefetches the whole recorded footprint. Configuration
// follows the paper's Table 7: 2KB regions, 64/128/4K-entry FT/AT/PHT.

// bingoRegionLines is the region size in cache lines (2KB / 64B).
const bingoRegionLines = 32

type bingoGen struct {
	regionTag uint64
	pc        uint64
	trigOff   int // trigger offset within region
	footprint uint32
	touches   int
	valid     bool
}

type bingoPHTEntry struct {
	longTag   uint64 // PC+Address event
	shortTag  uint64 // PC+Offset event
	footprint uint32
	valid     bool
}

// BingoConfig tunes Bingo.
type BingoConfig struct {
	// ATSize is the number of regions whose footprints are being
	// accumulated concurrently (power of two).
	ATSize int
	// PHTSize is the pattern history table size (power of two).
	PHTSize int
}

// DefaultBingoConfig returns the paper's configuration.
func DefaultBingoConfig() BingoConfig { return BingoConfig{ATSize: 128, PHTSize: 4096} }

// Bingo is the spatial footprint prefetcher.
type Bingo struct {
	cfg BingoConfig
	at  []bingoGen
	pht []bingoPHTEntry
	buf []uint64
}

// NewBingo builds a Bingo instance.
func NewBingo(cfg BingoConfig) *Bingo {
	if cfg.ATSize <= 0 || cfg.ATSize&(cfg.ATSize-1) != 0 {
		panic("prefetch: Bingo AT size must be a power of two")
	}
	if cfg.PHTSize <= 0 || cfg.PHTSize&(cfg.PHTSize-1) != 0 {
		panic("prefetch: Bingo PHT size must be a power of two")
	}
	return &Bingo{cfg: cfg, at: make([]bingoGen, cfg.ATSize), pht: make([]bingoPHTEntry, cfg.PHTSize)}
}

// Name implements Prefetcher.
func (b *Bingo) Name() string { return "bingo" }

func bingoRegionOf(line uint64) (region uint64, off int) {
	return line / bingoRegionLines, int(line % bingoRegionLines)
}

func bingoLongEvent(pc, region uint64, off int) uint64 {
	return pc<<20 ^ region<<5 ^ uint64(off)
}

func bingoShortEvent(pc uint64, off int) uint64 {
	return pc<<5 ^ uint64(off) | 1<<63 // disjoint tag space from long events
}

func (b *Bingo) phtSlot(key uint64) *bingoPHTEntry {
	h := key * 0x9E3779B97F4A7C15
	return &b.pht[h>>40&uint64(b.cfg.PHTSize-1)]
}

// phtInsert records a finished region generation under both events.
func (b *Bingo) phtInsert(g *bingoGen) {
	if g.touches < 1 || g.footprint == 0 {
		return
	}
	long := bingoLongEvent(g.pc, g.regionTag, g.trigOff)
	short := bingoShortEvent(g.pc, g.trigOff)
	e := b.phtSlot(short)
	if e.valid && e.shortTag == short {
		// Accumulate the union of footprints seen under this event: Bingo
		// favors coverage, accepting overpredictions on sparse instances.
		// Reset when the history grows far beyond current instances.
		if bits.OnesCount32(e.footprint) > 2*bits.OnesCount32(g.footprint)+4 {
			e.footprint = g.footprint
		} else {
			e.footprint |= g.footprint
		}
		e.longTag = long
		return
	}
	e.longTag = long
	e.shortTag = short
	e.footprint = g.footprint
	e.valid = true
}

// phtLookup finds a footprint for a trigger, preferring the long event.
func (b *Bingo) phtLookup(pc, region uint64, off int) (uint32, bool) {
	short := bingoShortEvent(pc, off)
	e := b.phtSlot(short)
	if !e.valid || e.shortTag != short {
		return 0, false
	}
	// The long event distinguishes exact region matches; when it matches we
	// are maximally confident, but the short match alone also predicts
	// (SMS-style generalization).
	return e.footprint, true
}

// Train implements Prefetcher.
func (b *Bingo) Train(a Access) []uint64 {
	region, off := bingoRegionOf(a.Line)
	slot := &b.at[region&uint64(b.cfg.ATSize-1)]

	if slot.valid && slot.regionTag == region {
		slot.footprint |= 1 << uint(off)
		slot.touches++
		return nil
	}

	// A new region generation begins: commit the evicted one to the PHT.
	if slot.valid {
		b.phtInsert(slot)
	}
	*slot = bingoGen{
		regionTag: region,
		pc:        a.PC,
		trigOff:   off,
		footprint: 1 << uint(off),
		touches:   1,
		valid:     true,
	}

	// Trigger access: predict this region's footprint from history.
	fp, ok := b.phtLookup(a.PC, region, off)
	if !ok {
		return nil
	}
	base := region * bingoRegionLines
	out := b.buf[:0]
	for rest := fp &^ (1 << uint(off)); rest != 0; rest &= rest - 1 {
		out = append(out, base+uint64(bits.TrailingZeros32(rest)))
	}
	b.buf = out
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (b *Bingo) Fill(uint64) {}
