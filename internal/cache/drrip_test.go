package cache

import "testing"

func TestDRRIPBasicVictim(t *testing.T) {
	d := NewDRRIP(64, 4).(*drrip)
	for w := 0; w < 4; w++ {
		d.Fill(5, w, uint64(w), false)
	}
	v := d.Victim(5)
	if v < 0 || v >= 4 {
		t.Fatalf("victim %d out of range", v)
	}
}

func TestDRRIPHitPromotes(t *testing.T) {
	d := NewDRRIP(64, 2).(*drrip)
	d.Fill(5, 0, 1, false)
	d.Fill(5, 1, 2, false)
	d.Hit(5, 0, 1)
	if v := d.Victim(5); v != 1 {
		t.Errorf("victim %d, want the non-promoted way 1", v)
	}
}

func TestDRRIPPrefetchDistant(t *testing.T) {
	d := NewDRRIP(64, 2).(*drrip)
	d.Fill(5, 0, 1, false)
	d.Fill(5, 1, 2, true) // prefetch: immediately evictable
	if v := d.Victim(5); v != 1 {
		t.Errorf("victim %d, want the prefetched way", v)
	}
}

func TestDRRIPDueling(t *testing.T) {
	d := NewDRRIP(64, 4).(*drrip)
	// Misses in SRRIP leaders decrement PSEL; in BRRIP leaders increment.
	start := d.psel
	for i := 0; i < 10; i++ {
		d.Fill(0, i%4, 1, false) // set 0: SRRIP leader
	}
	if d.psel >= start {
		t.Errorf("SRRIP-leader misses did not decrement PSEL: %d -> %d", start, d.psel)
	}
	mid := d.psel
	for i := 0; i < 10; i++ {
		d.Fill(1, i%4, 1, false) // set 1: BRRIP leader
	}
	if d.psel <= mid {
		t.Errorf("BRRIP-leader misses did not increment PSEL: %d -> %d", mid, d.psel)
	}
}

func TestDRRIPWorksInCache(t *testing.T) {
	c := NewCache("drrip", 256, 16, NewDRRIP)
	// Fill-and-hit sanity through the generic cache path.
	for i := uint64(0); i < 1000; i++ {
		c.Fill(i, i, false, false)
	}
	hits := 0
	for i := uint64(990); i < 1000; i++ {
		if _, hit := c.Lookup(i); hit {
			hits++
		}
	}
	if hits == 0 {
		t.Error("recently filled lines all evicted")
	}
}

func (d *drrip) rrpvAt(set, way int) uint8 { return uint8(d.rrpv[set] >> (2 * uint(way)) & 3) }
