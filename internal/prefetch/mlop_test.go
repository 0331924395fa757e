package prefetch

import (
	"math/bits"
	"math/rand"
	"testing"

	"pythia/internal/mem"
)

// refMLOPScore is MLOP's scoring as it was before it walked the map's set
// bits: a loop over all 63 offsets, skipping dense maps.
func refMLOPScore(scores *[mlopNumOff]int, amap uint64, off int) {
	if bits.OnesCount64(amap) > 24 {
		return
	}
	for d := -mlopMaxOffset; d <= mlopMaxOffset; d++ {
		if d == 0 {
			continue
		}
		src := off - d
		if src < 0 || src >= mem.LinesPerPage {
			continue
		}
		if amap&(1<<uint(src)) != 0 {
			scores[d+mlopMaxOffset]++
		}
	}
}

// TestMLOPScoreMatchesReference trains MLOP on accesses to pages whose
// access maps are set at random and checks that each access adds exactly
// the score increments of the 63-offset reference loop, and records its
// line in the map. The offsets include both ends of a page, 0 and 63,
// and the maps every density from empty to full, most of them at 23, 24
// and 25 lines, around the density cut.
func TestMLOPScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultMLOPConfig()
	cfg.UpdateInterval = 1 << 30 // keep every score: no round ends
	m := NewMLOP(cfg)
	var want [mlopNumOff]int
	for trial := 0; trial < 20_000; trial++ {
		n := rng.Intn(mem.LinesPerPage + 1)
		if trial%2 == 0 {
			n = 23 + rng.Intn(3)
		}
		var amap uint64
		for _, i := range rng.Perm(mem.LinesPerPage)[:n] {
			amap |= 1 << uint(i)
		}
		off := rng.Intn(mem.LinesPerPage)
		switch trial % 8 {
		case 1:
			off = 0
		case 3:
			off = mem.LinesPerPage - 1
		}
		page := uint64(rng.Intn(1 << 20))
		m.amt[page&uint64(cfg.AMTSize-1)] = mlopAM{pageTag: page, bits: amap, valid: true}
		refMLOPScore(&want, amap, off)
		m.Train(Access{Line: page*mem.LinesPerPage + uint64(off)})
		if m.scores != want {
			t.Fatalf("trial %d: offset %d in map %#x (%d lines): scores %v, want %v", trial, off, amap, n, m.scores, want)
		}
		if got := m.amt[page&uint64(cfg.AMTSize-1)].bits; got != amap|1<<uint(off) {
			t.Fatalf("trial %d: map %#x after the access, want %#x", trial, got, amap|1<<uint(off))
		}
	}
}
