// Package prefetch defines the hardware-prefetcher interface used by the
// cache hierarchy and implements the baseline prefetchers the paper compares
// Pythia against: PC-stride, streamer, next-line, SPP, PPF, Bingo, MLOP,
// DSPatch, IPCP, the contextual-bandit CP-HW, and the POWER7-style adaptive
// prefetcher. Pythia itself lives in internal/core and implements the same
// interface.
package prefetch

import "pythia/internal/mem"

// Access describes one demand access observed by a prefetcher at its cache
// level. Per the paper's methodology, prefetchers sit at the L2 and observe
// L1D misses.
type Access struct {
	// PC of the triggering demand.
	PC uint64
	// Line is the demanded cache line address.
	Line uint64
	// Cycle is the core cycle of the access.
	Cycle int64
	// Hit reports whether the access hit at the prefetcher's cache level.
	Hit bool
	// Store marks a write.
	Store bool
}

// System exposes the system-level feedback available to prefetchers.
// Pythia's reward scheme consumes the bandwidth signal; system-unaware
// baselines ignore it.
type System interface {
	// BandwidthUtil returns recent DRAM data-bus utilization in [0,1].
	BandwidthUtil() float64
}

// Prefetcher is the interface the cache hierarchy drives.
//
// Train observes a demand access and returns the line addresses to prefetch
// (possibly none). The returned slice is a buffer the prefetcher reuses: it
// is valid only until that prefetcher's next Train call and must not be
// kept (copy it to keep it). Callers may filter it in place, as FDP and PPF
// do with their inner prefetcher's candidates. This is what keeps the
// simulation's training path free of per-access allocation.
//
// Fill notifies the prefetcher that one of its prefetches has been filled
// into the cache, which Pythia uses to set the EQ filled bit (timeliness
// classification, Algorithm 1 step 7).
type Prefetcher interface {
	Name() string
	Train(a Access) []uint64
	Fill(line uint64)
}

// nilSystem is used when no system feedback is wired up.
type nilSystem struct{}

func (nilSystem) BandwidthUtil() float64 { return 0 }

// NilSystem returns a System with no bandwidth pressure, for tests and
// standalone use.
func NilSystem() System { return nilSystem{} }

// None is the no-prefetching baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "nopref" }

// Train implements Prefetcher.
func (None) Train(Access) []uint64 { return nil }

// Fill implements Prefetcher.
func (None) Fill(uint64) {}

// Multi composes several prefetchers at the same level; every component
// observes every access and their candidates are concatenated (the paper's
// "hybrid" configurations of Fig. 9b/10b).
type Multi struct {
	name  string
	parts []Prefetcher
	buf   []uint64
}

// NewMulti builds a hybrid from parts.
func NewMulti(name string, parts ...Prefetcher) *Multi {
	return &Multi{name: name, parts: parts}
}

// Name implements Prefetcher.
func (m *Multi) Name() string { return m.name }

// Train implements Prefetcher.
func (m *Multi) Train(a Access) []uint64 {
	out := m.buf[:0]
	for _, p := range m.parts {
		out = append(out, p.Train(a)...)
	}
	m.buf = out
	return out
}

// Fill implements Prefetcher.
func (m *Multi) Fill(line uint64) {
	for _, p := range m.parts {
		p.Fill(line)
	}
}

// clampToPage drops candidate lines that leave the triggering page; all
// post-L1 prefetchers in the paper prefetch within a physical page.
func clampToPage(trigger uint64, cands []uint64) []uint64 {
	out := cands[:0]
	for _, c := range cands {
		if mem.SamePage(trigger, c) {
			out = append(out, c)
		}
	}
	return out
}
