package trace

import (
	"testing"

	"pythia/internal/mem"
)

func newRNG() *Rand { return NewRand(7) }

func TestStreamActorSequential(t *testing.T) {
	a := &StreamActor{PC: 0x100, Base: 1 << 30, Dir: 1, Span: 100, SkipProb: -1}
	rng := newRNG()
	_, first, _ := a.Next(rng)
	prev := mem.LineAddr(first)
	for i := 0; i < 50; i++ {
		pc, addr, store := a.Next(rng)
		if pc != 0x100 || store {
			t.Fatalf("unexpected pc/store: %#x %v", pc, store)
		}
		line := mem.LineAddr(addr)
		if line != prev+1 {
			t.Fatalf("non-sequential line %d after %d", line, prev)
		}
		prev = line
	}
}

func TestStreamActorBackward(t *testing.T) {
	a := &StreamActor{PC: 0x100, Base: 1 << 30, Dir: -1, Span: 100, SkipProb: -1}
	rng := newRNG()
	_, first, _ := a.Next(rng)
	_, second, _ := a.Next(rng)
	if mem.LineAddr(second) != mem.LineAddr(first)-1 {
		t.Errorf("backward stream moved %d -> %d", mem.LineAddr(first), mem.LineAddr(second))
	}
}

func TestStreamActorSkips(t *testing.T) {
	a := &StreamActor{PC: 0x100, Base: 1 << 30, Dir: 1, Span: 1 << 20, SkipProb: 0.5}
	rng := newRNG()
	_, prev, _ := a.Next(rng)
	skips := 0
	for i := 0; i < 200; i++ {
		_, addr, _ := a.Next(rng)
		d := mem.LineAddr(addr) - mem.LineAddr(prev)
		if d > 1 {
			skips++
		}
		if d < 1 || d > 4 {
			t.Fatalf("stream step %d out of range", d)
		}
		prev = addr
	}
	if skips < 50 {
		t.Errorf("only %d skips at SkipProb=0.5", skips)
	}
}

func TestStreamActorRegionJump(t *testing.T) {
	a := &StreamActor{PC: 0x100, Base: 1 << 30, Dir: 1, Span: 4, SkipProb: -1}
	rng := newRNG()
	var lines []uint64
	for i := 0; i < 8; i++ {
		_, addr, _ := a.Next(rng)
		lines = append(lines, mem.LineAddr(addr))
	}
	// After Span accesses the stream restarts in a fresh region.
	if lines[4] == lines[3]+1 {
		t.Error("stream did not jump to a new region after Span lines")
	}
}

func TestStrideActor(t *testing.T) {
	a := &StrideActor{PC: 0x200, Base: 1 << 30, Stride: 7, Lines: 1 << 12}
	rng := newRNG()
	_, a0, _ := a.Next(rng)
	_, a1, _ := a.Next(rng)
	_, a2, _ := a.Next(rng)
	d1 := int64(mem.LineAddr(a1)) - int64(mem.LineAddr(a0))
	d2 := int64(mem.LineAddr(a2)) - int64(mem.LineAddr(a1))
	if d1 != 7 || d2 != 7 {
		t.Errorf("strides %d,%d want 7,7", d1, d2)
	}
}

func TestStrideActorWraps(t *testing.T) {
	a := &StrideActor{PC: 0x200, Base: 1 << 30, Stride: 3, Lines: 9}
	rng := newRNG()
	_, first, _ := a.Next(rng)
	for i := 0; i < 2; i++ {
		a.Next(rng)
	}
	_, wrapped, _ := a.Next(rng)
	if wrapped != first {
		t.Errorf("expected wrap to %d, got %d", mem.LineAddr(first), mem.LineAddr(wrapped))
	}
}

func TestDeltaChainActor(t *testing.T) {
	a := &DeltaChainActor{PC: 0x436a81, Base: 1 << 30, Chain: []int{23}, Parallel: 1}
	rng := newRNG()
	_, first, _ := a.Next(rng)
	_, second, _ := a.Next(rng)
	if mem.LineAddr(second)-mem.LineAddr(first) != 23 {
		t.Errorf("chain delta = %d, want 23", mem.LineAddr(second)-mem.LineAddr(first))
	}
	// Third access starts a new page.
	_, third, _ := a.Next(rng)
	if mem.PageOf(third) == mem.PageOf(first) {
		t.Error("chain did not advance to a new page")
	}
	if mem.LineOffset(third) != 0 {
		t.Errorf("new page should start at offset 0 without jitter, got %d", mem.LineOffset(third))
	}
}

func TestDeltaChainActorParallel(t *testing.T) {
	a := &DeltaChainActor{PC: 1, Base: 1 << 30, Chain: []int{5}, Parallel: 4}
	rng := newRNG()
	pages := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		_, addr, _ := a.Next(rng)
		pages[mem.PageOf(addr)] = true
	}
	if len(pages) != 4 {
		t.Errorf("parallel walkers should open 4 distinct pages, got %d", len(pages))
	}
}

func TestDeltaChainActorJitter(t *testing.T) {
	a := &DeltaChainActor{PC: 1, Base: 1 << 30, Chain: []int{9}, Parallel: 1, Jitter: 10}
	rng := newRNG()
	offsets := map[int]bool{}
	for i := 0; i < 40; i++ {
		_, addr, _ := a.Next(rng) // page lead
		offsets[mem.LineOffset(addr)] = true
		a.Next(rng) // chain step
	}
	if len(offsets) < 3 {
		t.Errorf("jitter should vary the leading offset, saw %d distinct", len(offsets))
	}
	for off := range offsets {
		if off < 0 || off > 10 {
			t.Errorf("jittered offset %d outside [0,10]", off)
		}
	}
}

func TestRegionActorFootprint(t *testing.T) {
	fp := []int{0, 3, 7, 12}
	a := &RegionActor{TriggerPC: 0x500, Base: 1 << 32, Footprint: fp, Regions: 100, Parallel: 1, Noise: -1, Drift: -1}
	rng := newRNG()
	for round := 0; round < 3; round++ {
		var page uint64
		for i, want := range fp {
			pc, addr, _ := a.Next(rng)
			if i == 0 {
				page = mem.PageOf(addr)
			} else if mem.PageOf(addr) != page {
				t.Fatalf("footprint left its region at step %d", i)
			}
			if got := mem.LineOffset(addr); got != want {
				t.Fatalf("round %d step %d offset %d, want %d", round, i, got, want)
			}
			if pc != 0x500+uint64(i)*4 {
				t.Fatalf("per-position PC wrong: %#x", pc)
			}
		}
	}
}

func TestRegionActorTruncation(t *testing.T) {
	fp := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a := &RegionActor{TriggerPC: 1, Base: 1 << 32, Footprint: fp, Parallel: 1, Noise: 0.9, Drift: -1}
	rng := newRNG()
	// With heavy truncation, some regions must end before the full footprint.
	regions := map[uint64]int{}
	for i := 0; i < 400; i++ {
		_, addr, _ := a.Next(rng)
		regions[mem.PageOf(addr)]++
	}
	short := 0
	for _, n := range regions {
		if n < len(fp) {
			short++
		}
	}
	if short == 0 {
		t.Error("no truncated regions observed at Noise=0.9")
	}
}

func TestChaseActorPermutation(t *testing.T) {
	a := &ChaseActor{PC: 1, Base: 1 << 32, Lines: 64}
	rng := newRNG()
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		_, addr, _ := a.Next(rng)
		seen[mem.LineAddr(addr)]++
	}
	// A permutation cycle visits distinct lines (a small cycle may repeat,
	// but must stay within the region).
	base := mem.LineAddr(uint64(1 << 32))
	for line := range seen {
		if line < base || line >= base+64 {
			t.Fatalf("chase left its region: line %d", line)
		}
	}
	if len(seen) < 2 {
		t.Error("chase degenerated to a single line")
	}
}

func TestGraphActorScanAdvances(t *testing.T) {
	a := &GraphActor{ScanPC: 1, VisitPC: 2, Base: 1 << 32, VertBase: 1 << 34, Vertices: 1024, RunLen: 2, ScanFrac: 1.0}
	rng := newRNG()
	var prev uint64
	for i := 0; i < 20; i++ {
		pc, addr, _ := a.Next(rng)
		if pc != 1 {
			t.Fatalf("ScanFrac=1 should only scan, got pc %d", pc)
		}
		line := mem.LineAddr(addr)
		if prev != 0 && line != prev+1 {
			t.Fatalf("scan not sequential: %d after %d", line, prev)
		}
		prev = line
	}
}

func TestZipfActorSkew(t *testing.T) {
	a := &ZipfActor{PC: 1, Base: 1 << 32, Lines: 1 << 12, Theta: 0.9}
	rng := newRNG()
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		_, addr, _ := a.Next(rng)
		counts[mem.LineAddr(addr)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Strong skew: the hottest line is far above uniform expectation (~5).
	if max < 50 {
		t.Errorf("zipf skew too weak: hottest line count %d", max)
	}
}

func TestTemporalActorRepeats(t *testing.T) {
	a := &TemporalActor{PC: 1, Base: 1 << 32, Len: 16}
	rng := newRNG()
	var first []uint64
	for i := 0; i < 16; i++ {
		_, addr, _ := a.Next(rng)
		first = append(first, addr)
	}
	for i := 0; i < 16; i++ {
		_, addr, _ := a.Next(rng)
		if addr != first[i] {
			t.Fatalf("temporal sequence did not repeat at %d", i)
		}
	}
}

func TestSpecGenerateDeterministic(t *testing.T) {
	build := func() Spec {
		return Spec{Seed: 42, MeanGap: 10, StoreFrac: 0.2, HotFrac: 0.5, Actors: []WeightedActor{
			{&StreamActor{PC: 1, Base: 1 << 30, Dir: 1, Span: 100}, 1},
			{&ZipfActor{PC: 2, Base: 1 << 32, Lines: 1024, Theta: 0.8}, 1},
		}}
	}
	a := build().Generate("x", "s", 5000)
	b := build().Generate("x", "s", 5000)
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestSpecGenerateHotFraction(t *testing.T) {
	sp := Spec{Seed: 1, MeanGap: 0, HotFrac: 0.5, HotLines: 64, Actors: []WeightedActor{
		{&StreamActor{PC: 1, Base: 1 << 40, Dir: 1}, 1},
	}}
	tr := sp.Generate("x", "s", 10000)
	hot := 0
	for _, r := range tr.Records {
		if r.Addr < 1<<40 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(tr.Records))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("hot fraction %.2f, want ~0.5", frac)
	}
}

func TestSpecGenerateEmpty(t *testing.T) {
	tr := Spec{}.Generate("x", "s", 100)
	if len(tr.Records) != 0 {
		t.Error("spec without actors should produce an empty trace")
	}
	tr = Spec{Actors: []WeightedActor{{&StreamActor{}, 1}}}.Generate("x", "s", 0)
	if len(tr.Records) != 0 {
		t.Error("n=0 should produce an empty trace")
	}
}
