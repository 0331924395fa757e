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
	// A new fill from the dead PC must be inserted at max RRPV: it is the
	// victim even against a lower way filled by an untrained PC.
	s.Fill(1, 0, 0x100, false)
	s.Fill(1, 1, deadPC, false)
	if v := s.Victim(1); v != 1 {
		t.Errorf("victim = %d, want the dead PC's way 1 (inserted at max RRPV)", v)
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
	// A prefetch sits at max RRPV; the lower live-PC way is the victim
	// only if it was inserted there too.
	s.Fill(3, 0, livePC, false)
	s.Fill(3, 1, 0x100, true)
	if v := s.Victim(3); v != 1 {
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

func (s *ship) rrpvAt(set, way int) uint8 { return uint8(s.sets[set].rrpv >> (2 * uint(way)) & 3) }
