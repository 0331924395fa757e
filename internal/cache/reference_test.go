package cache

// This file is the reference cache: the cache level as it was before
// LRU order moved into one word per set and a line's dirty and prefetch
// bits into its tag word. It keeps a use stamp per way, a separate
// metadata column and a fill scan over the whole set, and it is the
// model TestCacheMatchesReference and TestLRUMatchesReference check the
// packed cache against. Nothing outside the tests uses it.

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
