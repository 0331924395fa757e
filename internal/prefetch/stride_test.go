package prefetch

import (
	"testing"

	"pythia/internal/mem"
)

// feed drives a prefetcher with a line sequence under one PC and collects
// all candidates.
func feed(p Prefetcher, pc uint64, lines []uint64) []uint64 {
	var out []uint64
	for i, l := range lines {
		out = append(out, p.Train(Access{PC: pc, Line: l, Cycle: int64(i)})...)
	}
	return out
}

func TestStrideDetectsConstantStride(t *testing.T) {
	s := NewStride(256, 2)
	base := uint64(1 << 20)
	var lines []uint64
	for i := uint64(0); i < 10; i++ {
		lines = append(lines, base+i*3)
	}
	cands := feed(s, 0x400, lines)
	if len(cands) == 0 {
		t.Fatal("no prefetches for a constant stride")
	}
	// Candidates must continue the stride.
	last := lines[len(lines)-1]
	found := false
	for _, c := range cands {
		if c == last+3 || c == last+6 {
			found = true
		}
	}
	if !found {
		t.Errorf("candidates %v do not extend stride 3 from %d", cands, last)
	}
}

func TestStrideIgnoresRandom(t *testing.T) {
	s := NewStride(256, 2)
	lines := []uint64{100, 900, 300, 777, 50, 1234, 42, 999}
	if cands := feed(s, 0x400, lines); len(cands) != 0 {
		t.Errorf("random sequence produced prefetches: %v", cands)
	}
}

func TestStrideSeparatesPCs(t *testing.T) {
	s := NewStride(256, 1)
	// Two PCs with different strides interleaved; both should be detected.
	var got2, got5 bool
	for i := uint64(0); i < 12; i++ {
		for _, c := range s.Train(Access{PC: 0x1000, Line: 1<<20 + i*2}) { // slots differ: (pc>>2)&mask
			if c == 1<<20+i*2+2 {
				got2 = true
			}
		}
		for _, c := range s.Train(Access{PC: 0x2004, Line: 1<<21 + i*5}) {
			if c == 1<<21+i*5+5 {
				got5 = true
			}
		}
	}
	if !got2 || !got5 {
		t.Errorf("per-PC strides not both detected: +2=%v +5=%v", got2, got5)
	}
}

func TestStrideStaysInPage(t *testing.T) {
	s := NewStride(256, 4)
	// Stride that runs off the page end: candidates must be clamped.
	base := uint64(1<<20) + mem.LinesPerPage - 4
	var lines []uint64
	for i := uint64(0); i < 6; i++ {
		lines = append(lines, base+i)
	}
	for _, c := range feed(s, 0x400, lines) {
		if !mem.SamePage(c, lines[len(lines)-1]) && !mem.SamePage(c, lines[0]) {
			// candidate must share a page with its trigger
			t.Errorf("candidate %d escaped the page", c)
		}
	}
}

func TestStrideBadTableSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-power-of-two table")
		}
	}()
	NewStride(100, 2)
}

func TestNextLine(t *testing.T) {
	n := NewNextLine(2)
	cands := n.Train(Access{Line: 1000})
	if len(cands) != 2 || cands[0] != 1001 || cands[1] != 1002 {
		t.Errorf("candidates %v, want [1001 1002]", cands)
	}
	if n.Name() == "" {
		t.Error("empty name")
	}
	// Page end: nothing beyond the boundary.
	lastLine := uint64(mem.LinesPerPage - 1)
	if cands := n.Train(Access{Line: lastLine}); len(cands) != 0 {
		t.Errorf("page-end next-line emitted %v", cands)
	}
}

func TestStreamerForward(t *testing.T) {
	s := NewStreamer(64, 4)
	base := uint64(1 << 20)
	var all []uint64
	for i := uint64(0); i < 8; i++ {
		all = append(all, s.Train(Access{PC: 1, Line: base + i})...)
	}
	if len(all) == 0 {
		t.Fatal("no stream prefetches")
	}
	for _, c := range all {
		if c <= base {
			t.Errorf("forward stream prefetched backwards: %d", c)
		}
	}
}

func TestStreamerBackward(t *testing.T) {
	s := NewStreamer(64, 4)
	base := uint64(1<<20) + 32
	var all []uint64
	for i := uint64(0); i < 8; i++ {
		all = append(all, s.Train(Access{PC: 1, Line: base - i})...)
	}
	if len(all) == 0 {
		t.Fatal("no backward stream prefetches")
	}
	for _, c := range all {
		if c >= base {
			t.Errorf("backward stream prefetched forwards: %d", c)
		}
	}
}

func TestStreamerDepthControl(t *testing.T) {
	s := NewStreamer(64, 8)
	if s.Depth() != 8 {
		t.Fatalf("Depth() = %d", s.Depth())
	}
	s.SetDepth(0)
	base := uint64(1 << 20)
	var all []uint64
	for i := uint64(0); i < 8; i++ {
		all = append(all, s.Train(Access{PC: 1, Line: base + i})...)
	}
	if len(all) != 0 {
		t.Errorf("depth 0 should disable prefetching, got %v", all)
	}
	s.SetDepth(-5)
	if s.Depth() != 0 {
		t.Errorf("negative depth should clamp to 0, got %d", s.Depth())
	}
}

func TestMultiComposition(t *testing.T) {
	m := NewMulti("hybrid", NewNextLine(1), NewNextLine(2))
	cands := m.Train(Access{Line: 500})
	if len(cands) != 3 {
		t.Errorf("hybrid emitted %d candidates, want 3", len(cands))
	}
	if m.Name() != "hybrid" {
		t.Errorf("Name() = %q", m.Name())
	}
	m.Fill(501) // must not panic
}

// TestCompositesOwnTheirCandidates checks Multi and Power7 against fresh
// reference instances of their parts: each Train must return exactly the
// concatenation of the parts' candidates for that access, although every
// part reuses one buffer across calls. Two access streams interleave so
// consecutive calls draw candidates from different parts.
func TestCompositesOwnTheirCandidates(t *testing.T) {
	cfg := DefaultPower7Config()
	cases := map[string]func() (Prefetcher, []Prefetcher){
		"multi": func() (Prefetcher, []Prefetcher) {
			return NewMulti("m", NewNextLine(2), NewStride(256, 2), NewStreamer(64, 4), NewPower7(cfg)),
				[]Prefetcher{NewNextLine(2), NewStride(256, 2), NewStreamer(64, 4), NewPower7(cfg)}
		},
		// Below one adaptation interval POWER7's depth stays at the
		// middle of its ladder, so it is a streamer plus a stride engine.
		"power7": func() (Prefetcher, []Prefetcher) {
			return NewPower7(cfg), []Prefetcher{NewStreamer(64, cfg.Depths[len(cfg.Depths)/2]), NewStride(256, 2)}
		},
	}
	for name, build := range cases {
		p, parts := build()
		up, strided := uint64(1<<22), uint64(1<<24)
		emitted := 0
		for i := 0; i < cfg.Interval-1; i++ {
			a := Access{PC: 0x100, Line: up}
			up++
			if i%2 == 1 {
				a = Access{PC: 0x200, Line: strided}
				strided += 3
			}
			got := p.Train(a)
			var want []uint64
			for _, r := range parts {
				want = append(want, r.Train(a)...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s access %d: %d candidates, want %d", name, i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s access %d: candidates %v, want %v", name, i, got, want)
				}
			}
			emitted += len(got)
		}
		if emitted == 0 {
			t.Errorf("%s emitted no candidates", name)
		}
	}
}

func TestNonePrefetcher(t *testing.T) {
	var n None
	if got := n.Train(Access{Line: 1}); got != nil {
		t.Errorf("None emitted %v", got)
	}
	n.Fill(1)
	if n.Name() != "nopref" {
		t.Errorf("Name() = %q", n.Name())
	}
}

func TestRecentSet(t *testing.T) {
	var evicted []uint64
	var demanded []bool
	r := newRecentSet(4, func(line uint64, d bool) {
		evicted = append(evicted, line)
		demanded = append(demanded, d)
	})
	for i := uint64(1); i <= 4; i++ {
		r.add(i)
	}
	if !r.contains(1) {
		t.Fatal("line 1 should be tracked")
	}
	if !r.demand(2) {
		t.Fatal("demand to tracked line should report true")
	}
	if r.demand(99) {
		t.Fatal("unknown line should report false")
	}
	// Push two more: lines 1 and 2 age out.
	r.add(5)
	r.add(6)
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evictions %v", evicted)
	}
	if demanded[0] || !demanded[1] {
		t.Errorf("demanded flags %v, want [false true]", demanded)
	}
}
