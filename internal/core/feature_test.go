package core

import (
	"testing"
	"testing/quick"

	"pythia/internal/mem"
)

func TestAllFeaturesCount(t *testing.T) {
	fs := AllFeatures()
	if len(fs) != 32 {
		t.Errorf("feature space has %d entries, want 32 (4 CF × 8 DF)", len(fs))
	}
	seen := map[Feature]bool{}
	for _, f := range fs {
		if seen[f] {
			t.Errorf("duplicate feature %v", f)
		}
		seen[f] = true
	}
}

func TestFeatureStrings(t *testing.T) {
	cases := map[Feature]string{
		FeaturePCDelta:                  "PC+Delta",
		FeatureLast4Deltas:              "Last4Deltas",
		{CFPC, DFNone}:                  "PC",
		{CFNone, DFNone}:                "Empty",
		{CFPCPath, DFLast4Offsets}:      "PC-path+Last4Offsets",
		{CFPCXorPrev, DFOffsetXorDelta}: "PC^prevPC+Offset^Delta",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", f, got, want)
		}
	}
}

func TestFeatureValueDeterministic(t *testing.T) {
	st := State{PC: 0x400100, Line: 12345, Page: 12345 >> 6, Offset: 5, Delta: -3}
	for _, f := range AllFeatures() {
		if f.Value(&st) != f.Value(&st) {
			t.Errorf("feature %v value not deterministic", f)
		}
	}
}

func TestFeatureValueDiscriminates(t *testing.T) {
	a := State{PC: 0x400100, Delta: 3}
	b := State{PC: 0x400100, Delta: 5}
	c := State{PC: 0x400104, Delta: 3}
	f := FeaturePCDelta
	if f.Value(&a) == f.Value(&b) {
		t.Error("PC+Delta should distinguish deltas")
	}
	if f.Value(&a) == f.Value(&c) {
		t.Error("PC+Delta should distinguish PCs")
	}
}

func TestFeatureValueNegativeDeltaFolds(t *testing.T) {
	a := State{Delta: -1}
	b := State{Delta: 255} // would alias if folding were unsigned-naive
	f := Feature{CFNone, DFDelta}
	// -1 folds to 0xFF by design; delta values are in [-63,63] so this
	// aliasing never occurs for real deltas.
	if f.Value(&a) != f.Value(&b) {
		t.Log("fold differs — acceptable, deltas are bounded")
	}
	c := State{Delta: 1}
	if f.Value(&a) == f.Value(&c) {
		t.Error("-1 and +1 deltas must differ")
	}
}

// observe runs one Tracker.Observe and returns the state it wrote.
func observe(tr *Tracker, pc, line uint64) State {
	var s State
	tr.Observe(pc, line, &s)
	return s
}

func TestTrackerDeltaComputation(t *testing.T) {
	tr := NewTracker(256)
	page := uint64(100)
	s1 := observe(tr, 1, page*mem.LinesPerPage+10)
	if s1.Delta != 0 {
		t.Errorf("first touch delta = %d, want 0", s1.Delta)
	}
	s2 := observe(tr, 1, page*mem.LinesPerPage+33)
	if s2.Delta != 23 {
		t.Errorf("delta = %d, want 23", s2.Delta)
	}
	s3 := observe(tr, 1, page*mem.LinesPerPage+30)
	if s3.Delta != -3 {
		t.Errorf("delta = %d, want -3", s3.Delta)
	}
}

func TestTrackerPageLocalHistories(t *testing.T) {
	tr := NewTracker(256)
	pageA, pageB := uint64(10), uint64(20)
	// Interleave two pages with different delta patterns.
	observe(tr, 1, pageA*mem.LinesPerPage+0)
	observe(tr, 1, pageB*mem.LinesPerPage+0)
	observe(tr, 1, pageA*mem.LinesPerPage+5)        // A: +5
	observe(tr, 1, pageB*mem.LinesPerPage+9)        // B: +9
	sA := observe(tr, 1, pageA*mem.LinesPerPage+10) // A: +5
	if sA.LastDeltas[0] != 5 || sA.LastDeltas[1] != 5 {
		t.Errorf("page A deltas %v polluted by page B", sA.LastDeltas)
	}
	sB := observe(tr, 1, pageB*mem.LinesPerPage+18) // B: +9
	if sB.LastDeltas[0] != 9 || sB.LastDeltas[1] != 9 {
		t.Errorf("page B deltas %v polluted by page A", sB.LastDeltas)
	}
}

func TestTrackerPCPath(t *testing.T) {
	tr := NewTracker(256)
	observe(tr, 0x100, 1)
	observe(tr, 0x200, 2)
	s := observe(tr, 0x400, 3)
	if s.PCPath != 0x100^0x200^0x400 {
		t.Errorf("PCPath = %#x", s.PCPath)
	}
	if s.PrevPC != 0x200 {
		t.Errorf("PrevPC = %#x, want 0x200", s.PrevPC)
	}
}

func TestTrackerEvictionRestartsHistory(t *testing.T) {
	tr := NewTracker(2) // tiny: pages conflict aggressively
	observe(tr, 1, 0*mem.LinesPerPage+4)
	observe(tr, 1, 1*mem.LinesPerPage+9)
	observe(tr, 1, 2*mem.LinesPerPage+9) // evicts page 0 (same slot)
	s := observe(tr, 1, 0*mem.LinesPerPage+6)
	if s.Delta != 0 {
		t.Errorf("delta after eviction = %d, want 0 (history restarted)", s.Delta)
	}
}

func TestTrackerBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewTracker(100)
}

func TestTrackerDeltaBoundedProperty(t *testing.T) {
	tr := NewTracker(1024)
	f := func(pc, line uint64) bool {
		s := observe(tr, pc, line)
		return s.Delta > -mem.LinesPerPage && s.Delta < mem.LinesPerPage &&
			s.Offset >= 0 && s.Offset < mem.LinesPerPage
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
