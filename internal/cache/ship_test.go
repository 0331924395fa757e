package cache

import "testing"

func TestSHiPBasicVictim(t *testing.T) {
	s := NewSHiP(4, 4).(*ship)
	// Fill a set; all inserted at mid RRPV, so some way must be evictable
	// after aging.
	for w := 0; w < 4; w++ {
		s.Fill(0, w, uint64(0x100+w), false)
	}
	v := s.Victim(0)
	if v < 0 || v >= 4 {
		t.Fatalf("victim %d out of range", v)
	}
}

func TestSHiPHitPromotes(t *testing.T) {
	s := NewSHiP(4, 2).(*ship)
	s.Fill(0, 0, 0x100, false)
	s.Fill(0, 1, 0x200, false)
	s.Hit(0, 0, 0x100)
	// Way 0 was promoted to RRPV 0; way 1 should be victimized.
	if v := s.Victim(0); v != 1 {
		t.Errorf("victim = %d, want 1 (way 0 was re-referenced)", v)
	}
}

func TestSHiPPrefetchInsertedDistant(t *testing.T) {
	s := NewSHiP(4, 2).(*ship)
	s.Fill(0, 0, 0x100, false)
	s.Fill(0, 1, 0x200, true) // prefetch: distant re-reference
	if v := s.Victim(0); v != 1 {
		t.Errorf("victim = %d, want the prefetched way 1", v)
	}
}

func TestSHiPLearnsDeadPCs(t *testing.T) {
	s := NewSHiP(16, 4).(*ship)
	deadPC := uint64(0xdead0)
	// Train: lines from deadPC never see hits before eviction.
	for i := 0; i < 8; i++ {
		s.Fill(i%16, 0, deadPC, false)
		s.Evict(i%16, 0)
	}
	// New fill from the dead PC must be inserted at max RRPV (immediately
	// evictable even against an untouched line).
	s.Fill(1, 0, deadPC, false)
	if got := s.lines[1*4+0].rrpv; got != shipMaxRRPV {
		t.Errorf("dead-PC insertion RRPV = %d, want %d", got, shipMaxRRPV)
	}
}

func TestSHiPLearnsLivePCs(t *testing.T) {
	s := NewSHiP(16, 4).(*ship)
	livePC := uint64(0x11FE)
	for i := 0; i < 8; i++ {
		s.Fill(2, 1, livePC, false)
		s.Hit(2, 1, livePC)
		s.Evict(2, 1)
	}
	s.Fill(3, 0, livePC, false)
	if got := s.lines[3*4+0].rrpv; got == shipMaxRRPV {
		t.Error("re-used PC should not be inserted at distant RRPV")
	}
}

func TestSHiPVictimTerminates(t *testing.T) {
	s := NewSHiP(2, 2).(*ship)
	// Even with all RRPVs at 0 the aging loop must find a victim.
	for w := 0; w < 2; w++ {
		s.Fill(0, w, 1, false)
		s.Hit(0, w, 1)
	}
	done := make(chan int, 1)
	go func() { done <- s.Victim(0) }()
	select {
	case v := <-done:
		if v < 0 || v >= 2 {
			t.Errorf("victim %d out of range", v)
		}
	}
}
