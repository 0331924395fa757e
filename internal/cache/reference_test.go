package cache

// This file is the reference cache: the cache level as it was before
// LRU order moved into one word per set and a line's dirty and prefetch
// bits into its tag word. It keeps a use stamp per way, a separate
// metadata column and a fill scan over the whole set, and it is the
// model TestCacheMatchesReference and TestLRUMatchesReference check the
// packed cache against. Beside it are SHiP and DRRIP as they were before
// a set's RRPVs moved into one word, with a byte of RRPV per way, the
// model TestCacheMatchesReference and TestRRIPMatchesReference check the
// packed policies against. Nothing outside the tests uses them.

// refMeta is one line's state beside its tag.
type refMeta struct {
	dirty    bool
	prefetch bool
}

// refCache is a set-associative cache with tags, metadata and
// replacement kept apart.
type refCache struct {
	sets, ways   int
	tags         []uint64 // line | tagValid, 0 when empty
	meta         []refMeta
	repl         Replacement
	hits, misses int64
}

func newRefCache(sets, ways int, repl Replacement) *refCache {
	return &refCache{sets: sets, ways: ways, tags: make([]uint64, sets*ways), meta: make([]refMeta, sets*ways), repl: repl}
}

func (c *refCache) setOf(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

func (c *refCache) at(set, way int) line {
	idx := set*c.ways + way
	t, m := c.tags[idx], c.meta[idx]
	return line{tag: t &^ tagValid, valid: t&tagValid != 0, dirty: m.dirty, prefetch: m.prefetch}
}

func (c *refCache) Lookup(lineAddr uint64) (way int, hit bool) {
	base := c.setOf(lineAddr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == lineAddr|tagValid {
			return w, true
		}
	}
	return -1, false
}

func (c *refCache) Access(lineAddr, pc uint64, store bool) (hit, wasPrefetch bool) {
	set := c.setOf(lineAddr)
	way, hit := c.Lookup(lineAddr)
	if !hit {
		c.misses++
		return false, false
	}
	c.hits++
	c.repl.Hit(set, way, pc)
	m := &c.meta[set*c.ways+way]
	wasPrefetch = m.prefetch
	m.prefetch = false
	if store {
		m.dirty = true
	}
	return true, wasPrefetch
}

func (c *refCache) Fill(lineAddr, pc uint64, isPrefetch, dirty bool) Evicted {
	set := c.setOf(lineAddr)
	base := set * c.ways
	way := -1
	for w := 0; w < c.ways; w++ {
		t := c.tags[base+w]
		if t == lineAddr|tagValid {
			if dirty {
				c.meta[base+w].dirty = true
			}
			return Evicted{}
		}
		if t&tagValid == 0 && way < 0 {
			way = w
		}
	}
	var out Evicted
	if way < 0 {
		way = c.repl.Victim(set)
		m := c.meta[base+way]
		out = Evicted{Line: c.tags[base+way] &^ tagValid, Dirty: m.dirty, Valid: true}
		c.repl.Evict(set, way)
	}
	c.tags[base+way] = lineAddr | tagValid
	c.meta[base+way] = refMeta{dirty: dirty, prefetch: isPrefetch}
	c.repl.Fill(set, way, pc, isPrefetch)
	return out
}

// refLRU is least-recently-used replacement by a monotonic use stamp per
// way; the lowest stamp is the victim, the lowest way among equal stamps.
type refLRU struct {
	ways  int
	stamp []int64
	clock int64
}

func newRefLRU(sets, ways int) Replacement {
	return &refLRU{ways: ways, stamp: make([]int64, sets*ways)}
}

func (p *refLRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *refLRU) Hit(set, way int, pc uint64) { p.touch(set, way) }

func (p *refLRU) Fill(set, way int, pc uint64, prefetch bool) { p.touch(set, way) }

func (p *refLRU) Victim(set int) int {
	st := p.stamp[set*p.ways : set*p.ways+p.ways]
	best := 0
	for w := 1; w < len(st); w++ {
		if st[w] < st[best] {
			best = w
		}
	}
	return best
}

func (p *refLRU) Evict(set, way int) {}

// refSHiPLine is one way's SHiP state in the reference policy.
type refSHiPLine struct {
	rrpv     uint8
	sig      uint16
	outcome  bool // saw a hit during residency
	occupied bool
}

// refSHiP is SHiP replacement as it was before a set's RRPVs moved into
// one word: a struct per way, and a victim scan and aging pass over the
// set's structs.
type refSHiP struct {
	ways  int
	lines []refSHiPLine
	shct  []uint8
}

func newRefSHiP(sets, ways int) Replacement {
	s := &refSHiP{ways: ways, lines: make([]refSHiPLine, sets*ways), shct: make([]uint8, shipSHCTSize)}
	for i := range s.shct {
		s.shct[i] = 1
	}
	return s
}

func (s *refSHiP) rrpvAt(set, way int) uint8 { return s.lines[set*s.ways+way].rrpv }

func (s *refSHiP) Hit(set, way int, pc uint64) {
	l := &s.lines[set*s.ways+way]
	l.rrpv = 0
	if !l.outcome {
		l.outcome = true
		if s.shct[l.sig] < shipCtrMax {
			s.shct[l.sig]++
		}
	}
}

func (s *refSHiP) Fill(set, way int, pc uint64, prefetch bool) {
	sig := shipSig(pc)
	l := &s.lines[set*s.ways+way]
	l.sig = sig
	l.outcome = false
	l.occupied = true
	if s.shct[sig] == 0 {
		l.rrpv = shipMaxRRPV
	} else {
		l.rrpv = shipMaxRRPV - 1
	}
	if prefetch {
		l.rrpv = shipMaxRRPV
	}
}

// Victim picks the lowest way with the highest RRPV and ages every way by
// that RRPV's distance to the maximum, the closed form of the rescan that
// ages the set one step at a time until some way reaches the maximum.
func (s *refSHiP) Victim(set int) int {
	ls := s.lines[set*s.ways : set*s.ways+s.ways]
	victim, maxR := 0, ls[0].rrpv
	for w := 1; w < len(ls); w++ {
		if r := ls[w].rrpv; r > maxR {
			victim, maxR = w, r
		}
	}
	if age := shipMaxRRPV - maxR; age > 0 {
		for w := range ls {
			ls[w].rrpv += age
		}
	}
	return victim
}

func (s *refSHiP) Evict(set, way int) {
	l := &s.lines[set*s.ways+way]
	if l.occupied && !l.outcome {
		if s.shct[l.sig] > 0 {
			s.shct[l.sig]--
		}
	}
	l.occupied = false
}

// refDRRIP is DRRIP replacement as it was before a set's RRPVs moved into
// one word: a byte per way.
type refDRRIP struct {
	ways    int
	rrpv    []uint8
	psel    int
	counter int
}

func newRefDRRIP(sets, ways int) Replacement {
	return &refDRRIP{ways: ways, rrpv: make([]uint8, sets*ways), psel: drripPSELMax / 2}
}

func (d *refDRRIP) rrpvAt(set, way int) uint8 { return d.rrpv[set*d.ways+way] }

func (d *refDRRIP) Hit(set, way int, pc uint64) { d.rrpv[set*d.ways+way] = 0 }

func (d *refDRRIP) Fill(set, way int, pc uint64, prefetch bool) {
	useBRRIP := false
	switch set & 31 {
	case 0: // SRRIP leader
		if d.psel > 0 {
			d.psel--
		}
	case 1: // BRRIP leader
		useBRRIP = true
		if d.psel < drripPSELMax {
			d.psel++
		}
	default:
		useBRRIP = d.psel < drripPSELMax/2
	}
	r := uint8(drripMaxRRPV - 1)
	if useBRRIP {
		r = drripMaxRRPV
		d.counter++
		if d.counter%drripBRRIPProb == 0 {
			r = drripMaxRRPV - 1
		}
	}
	if prefetch {
		r = drripMaxRRPV
	}
	d.rrpv[set*d.ways+way] = r
}

// Victim is refSHiP.Victim's closed form on the byte column.
func (d *refDRRIP) Victim(set int) int {
	rr := d.rrpv[set*d.ways : set*d.ways+d.ways]
	victim, maxR := 0, rr[0]
	for w := 1; w < len(rr); w++ {
		if r := rr[w]; r > maxR {
			victim, maxR = w, r
		}
	}
	if age := drripMaxRRPV - maxR; age > 0 {
		for w := range rr {
			rr[w] += age
		}
	}
	return victim
}

func (d *refDRRIP) Evict(set, way int) {}
