package prefetch

import (
	"math/bits"

	"pythia/internal/mem"
)

// MLOP implements Multi-Lookahead Offset Prefetching [Shakerinava et al.,
// DPC3 2019]: a best-offset-style prefetcher that scores every candidate
// offset against recent access maps at multiple lookahead levels and
// prefetches with the best offset of each level, giving it an aggressive
// effective degree. Configuration follows the paper's Table 7 (128-entry
// access map table, 500-access update interval, degree 16).

const (
	mlopMaxOffset = 31
	mlopNumOff    = 2*mlopMaxOffset + 1 // offsets -31..31
)

// MLOPConfig tunes MLOP.
type MLOPConfig struct {
	// AMTSize is the number of pages tracked (power of two).
	AMTSize int
	// UpdateInterval is the number of trained accesses per scoring round.
	UpdateInterval int
	// Degree is the maximum offsets selected per round.
	Degree int
	// ScoreFrac is the fraction of the round's best score an offset needs
	// to be selected.
	ScoreFrac float64
}

// DefaultMLOPConfig returns the paper's configuration.
func DefaultMLOPConfig() MLOPConfig {
	return MLOPConfig{AMTSize: 128, UpdateInterval: 500, Degree: 8, ScoreFrac: 0.60}
}

type mlopAM struct {
	pageTag uint64
	bits    uint64 // accessed line offsets in the page
	valid   bool
}

// MLOP is the multi-lookahead offset prefetcher.
type MLOP struct {
	cfg     MLOPConfig
	amt     []mlopAM
	scores  [mlopNumOff]int
	chosen  []int
	trained int
	buf     []uint64
}

// NewMLOP builds an MLOP instance.
func NewMLOP(cfg MLOPConfig) *MLOP {
	if cfg.AMTSize <= 0 || cfg.AMTSize&(cfg.AMTSize-1) != 0 {
		panic("prefetch: MLOP AMT size must be a power of two")
	}
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = 500
	}
	return &MLOP{cfg: cfg, amt: make([]mlopAM, cfg.AMTSize)}
}

// Name implements Prefetcher.
func (m *MLOP) Name() string { return "mlop" }

// Offsets returns the currently selected prefetch offsets (for tests and
// introspection).
func (m *MLOP) Offsets() []int {
	out := make([]int, len(m.chosen))
	copy(out, m.chosen)
	return out
}

// Train implements Prefetcher.
func (m *MLOP) Train(a Access) []uint64 {
	page := mem.PageOfLine(a.Line)
	off := mem.LineOffsetOfLine(a.Line)
	e := &m.amt[page&uint64(m.cfg.AMTSize-1)]
	if !e.valid || e.pageTag != page {
		*e = mlopAM{pageTag: page, valid: true}
	}

	// Score: an offset d earns a point when the current access would have
	// been predicted by a previous access at (off - d) in the same page.
	// Dense maps (heavy irregular reuse) are excluded: they would credit
	// every offset indiscriminately.
	if bits.OnesCount64(e.bits) > 24 {
		e.bits |= 1 << uint(off)
		m.trained++
		if m.trained >= m.cfg.UpdateInterval {
			m.selectOffsets()
		}
		return m.emit(a)
	}
	for d := -mlopMaxOffset; d <= mlopMaxOffset; d++ {
		if d == 0 {
			continue
		}
		src := off - d
		if src < 0 || src >= mem.LinesPerPage {
			continue
		}
		if e.bits&(1<<uint(src)) != 0 {
			m.scores[d+mlopMaxOffset]++
		}
	}
	e.bits |= 1 << uint(off)

	m.trained++
	if m.trained >= m.cfg.UpdateInterval {
		m.selectOffsets()
	}
	return m.emit(a)
}

// emit issues the currently elected offsets for an access.
func (m *MLOP) emit(a Access) []uint64 {
	if len(m.chosen) == 0 {
		return nil
	}
	out := m.buf[:0]
	for _, d := range m.chosen {
		out = append(out, uint64(int64(a.Line)+int64(d)))
	}
	m.buf = out
	return clampToPage(a.Line, out)
}

// selectOffsets ends a scoring round: keep every offset whose score clears
// ScoreFrac of the round's best, up to Degree of them.
func (m *MLOP) selectOffsets() {
	best := 0
	for _, s := range m.scores {
		if s > best {
			best = s
		}
	}
	m.chosen = m.chosen[:0]
	// An offset must both be competitive with the round's best and predict
	// a meaningful fraction of all accesses; the floor keeps pattern-free
	// workloads (pointer chases) from electing noise offsets.
	floor := m.cfg.UpdateInterval / 5
	if best > floor {
		cut := int(float64(best) * m.cfg.ScoreFrac)
		if cut < floor {
			cut = floor
		}
		// Prefer nearer offsets first so the degree budget goes to timely
		// prefetches.
		for mag := 1; mag <= mlopMaxOffset && len(m.chosen) < m.cfg.Degree; mag++ {
			for _, d := range [2]int{mag, -mag} {
				if len(m.chosen) >= m.cfg.Degree {
					break
				}
				if m.scores[d+mlopMaxOffset] > cut {
					m.chosen = append(m.chosen, d)
				}
			}
		}
	}
	m.scores = [mlopNumOff]int{}
	m.trained = 0
	// Access maps are per-round snapshots: without ageing, long-lived dense
	// maps would credit every offset.
	for i := range m.amt {
		m.amt[i] = mlopAM{}
	}
}

// Fill implements Prefetcher.
func (m *MLOP) Fill(uint64) {}
