package prefetch

import "pythia/internal/mem"

// SPP implements the Signature Path Prefetcher [Kim et al., MICRO 2016]:
// a per-page signature of recent in-page deltas indexes a pattern table of
// delta predictions with confidence counters; lookahead prefetching walks
// the signature path multiplying path confidence until it falls below a
// threshold. Configuration follows the paper's Table 7 (256-entry ST,
// 512-entry pattern table).

const (
	sppSigBits    = 12
	sppSigMask    = (1 << sppSigBits) - 1
	sppSigShift   = 3
	sppPTWays     = 4
	sppCtrMax     = 15
	sppMaxDegree  = 4
	sppMaxLookahe = 6
)

type sppSTEntry struct {
	pageTag uint64
	lastOff int
	sig     uint16
	valid   bool
}

type sppPTEntry struct {
	delta [sppPTWays]int16
	ctr   [sppPTWays]uint8
	used  [sppPTWays]bool
	total uint8
}

// SPPConfig tunes SPP.
type SPPConfig struct {
	// STSize is the signature-table size (pages tracked), a power of two.
	STSize int
	// PTSize is the pattern-table size indexed by signature, a power of two.
	PTSize int
	// Threshold is the minimum path confidence to keep prefetching.
	Threshold float64
}

// DefaultSPPConfig returns the paper's configuration.
func DefaultSPPConfig() SPPConfig {
	return SPPConfig{STSize: 256, PTSize: 512, Threshold: 0.33}
}

// SPP is the signature path prefetcher.
type SPP struct {
	cfg SPPConfig
	st  []sppSTEntry
	pt  []sppPTEntry
	buf []uint64
}

// NewSPP builds an SPP instance.
func NewSPP(cfg SPPConfig) *SPP {
	if cfg.STSize <= 0 || cfg.STSize&(cfg.STSize-1) != 0 {
		panic("prefetch: SPP ST size must be a power of two")
	}
	if cfg.PTSize <= 0 || cfg.PTSize&(cfg.PTSize-1) != 0 {
		panic("prefetch: SPP PT size must be a power of two")
	}
	return &SPP{cfg: cfg, st: make([]sppSTEntry, cfg.STSize), pt: make([]sppPTEntry, cfg.PTSize)}
}

// Name implements Prefetcher.
func (s *SPP) Name() string { return "spp" }

func (s *SPP) ptIndex(sig uint16) *sppPTEntry {
	return &s.pt[int(sig)&(s.cfg.PTSize-1)]
}

func sppAdvance(sig uint16, delta int) uint16 {
	return uint16((int(sig)<<sppSigShift ^ (delta & 0x7f)) & sppSigMask)
}

func (s *SPP) trainPT(sig uint16, delta int) {
	e := s.ptIndex(sig)
	d := int16(delta)
	// Existing way?
	for w := 0; w < sppPTWays; w++ {
		if e.used[w] && e.delta[w] == d {
			if e.ctr[w] >= sppCtrMax {
				// Saturate: halve all counters to age the distribution.
				for i := 0; i < sppPTWays; i++ {
					e.ctr[i] /= 2
				}
				e.total /= 2
			}
			e.ctr[w]++
			e.total++
			return
		}
	}
	// Allocate or replace the weakest way.
	victim, min := 0, uint8(255)
	for w := 0; w < sppPTWays; w++ {
		if !e.used[w] {
			victim = w
			min = 0
			break
		}
		if e.ctr[w] < min {
			victim, min = w, e.ctr[w]
		}
	}
	if e.total >= min {
		e.total -= min
	}
	e.delta[victim] = d
	e.ctr[victim] = 1
	e.used[victim] = true
	e.total++
}

// bestDelta returns the strongest delta prediction and its confidence.
func (s *SPP) bestDelta(sig uint16) (delta int, conf float64, ok bool) {
	e := s.ptIndex(sig)
	if e.total == 0 {
		return 0, 0, false
	}
	bestW, best := -1, uint8(0)
	for w := 0; w < sppPTWays; w++ {
		if e.used[w] && e.ctr[w] > best {
			bestW, best = w, e.ctr[w]
		}
	}
	if bestW < 0 {
		return 0, 0, false
	}
	// Laplace-style smoothing keeps low-sample signatures from reporting
	// full confidence after a single observation.
	return int(e.delta[bestW]), float64(best) / float64(e.total+3), true
}

// Train implements Prefetcher: updates the signature path and performs
// confidence-gated lookahead prefetching.
func (s *SPP) Train(a Access) []uint64 {
	page := mem.PageOfLine(a.Line)
	off := mem.LineOffsetOfLine(a.Line)
	e := &s.st[page&uint64(s.cfg.STSize-1)]

	var sig uint16
	if e.valid && e.pageTag == page {
		delta := off - e.lastOff
		if delta == 0 {
			return nil
		}
		s.trainPT(e.sig, delta)
		sig = sppAdvance(e.sig, delta)
		e.sig = sig
		e.lastOff = off
	} else {
		*e = sppSTEntry{pageTag: page, lastOff: off, sig: 0, valid: true}
		sig = 0
	}

	// Lookahead: walk the signature path while confidence holds.
	out := s.buf[:0]
	conf := 1.0
	curSig := sig
	line := a.Line
	for depth := 0; depth < sppMaxLookahe && len(out) < sppMaxDegree; depth++ {
		d, c, ok := s.bestDelta(curSig)
		if !ok || d == 0 {
			break
		}
		conf *= c
		if conf < s.cfg.Threshold {
			break
		}
		next := uint64(int64(line) + int64(d))
		if !mem.SamePage(a.Line, next) {
			break
		}
		out = append(out, next)
		curSig = sppAdvance(curSig, d)
		line = next
	}
	s.buf = out
	return out
}

// Fill implements Prefetcher.
func (s *SPP) Fill(uint64) {}
