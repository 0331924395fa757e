// Package cache implements the on-chip memory hierarchy: set-associative
// caches with LRU and SHiP replacement, MSHR-style outstanding-miss tracking
// with miss merging, and the three-level L1D/L2/LLC hierarchy that drives
// prefetchers and the DRAM model. It mirrors the simulated system of the
// paper's Table 5.
package cache

import (
	"fmt"
	"math/bits"
)

// A tag word packs one way's whole state. Line addresses are byte
// addresses shifted right by 6, so they fit in the low 58 bits, and the
// bits above carry the rest: whether the way holds a line, whether the
// line is dirty, and whether a prefetch brought it in and no demand has
// touched it since. An 8-way set's hit scan thus compares eight
// contiguous uint64s, a single 64-byte cache line, and a hit or fill
// updates the line's state in the word it has already loaded. An empty
// way's word is 0.
const (
	tagValid    = 1 << 63
	tagDirty    = 1 << 62
	tagPrefetch = 1 << 61
	tagLine     = 1<<58 - 1
	// tagKey selects what a probe compares: the line and the valid bit.
	tagKey = tagValid | tagLine
)

// maxWays is the largest associativity: LRU keeps a set's recency order
// as sixteen 4-bit way numbers in one word.
const maxWays = 16

// Replacement chooses victims and reacts to hits/fills. Implementations:
// LRU and SHiP.
type Replacement interface {
	// Hit notes a demand hit on (set, way).
	Hit(set, way int, pc uint64)
	// Fill notes a fill into (set, way).
	Fill(set, way int, pc uint64, prefetch bool)
	// Victim picks the way to evict in set (invalid ways are handled by the
	// cache before calling Victim).
	Victim(set int) int
	// Evict notes that (set, way) was evicted.
	Evict(set, way int)
}

// Cache is a single set-associative cache level. Its storage is one tag
// word per way (see tagValid) plus the replacement policy's own arrays, so
// the dominant operation, the tag scan, reads one contiguous run of words.
//
// The valid ways of a set always form a prefix of it: a fill takes the
// first empty way, and nothing empties a way again (a recycled cache is
// cleared whole). Fill relies on this to stop its scan at the first empty
// way.
type Cache struct {
	// Hot fields first so the scan's working state (tag slice header, set
	// mask, counters, fast replacement pointer) shares a cache line.
	tags []uint64
	sets int
	ways int
	// wayShift is log2(ways) when ways is a power of two (always, for the
	// Table 5 geometries), letting rowBase compute set*ways as a shift off
	// the probe's critical path; -1 selects the multiply fallback.
	wayShift int
	// lruFast devirtualizes the replacement policy when it is the built-in
	// LRU (L1 and L2 always are): Access and Fill update the set's order
	// word directly instead of paying an interface dispatch per hit.
	// Behaviour is identical to calling repl's methods.
	lruFast *lru
	// shipFast likewise devirtualizes SHiP (the LLC's default policy), so
	// its small methods inline into Access and Fill.
	shipFast *ship

	// Hits and Misses count demand lookups.
	Hits, Misses int64

	repl Replacement
	name string
}

// NewCache builds a cache of sizeKB with the given associativity and
// replacement policy. It panics on a geometry that geometry rejects.
func NewCache(name string, sizeKB, ways int, repl func(sets, ways int) Replacement) *Cache {
	return recycleCache(name, sizeKB, ways, func(sets, ways int, _ Replacement) Replacement { return repl(sets, ways) }, nil)
}

// geometry returns the set count of a sizeKB cache with the given
// associativity. The size must be positive, the ways within 1..maxWays,
// and the set count a power of two.
func geometry(sizeKB, ways int) (sets int, err error) {
	if sizeKB <= 0 {
		return 0, fmt.Errorf("size must be positive, got %dKB", sizeKB)
	}
	if ways < 1 || ways > maxWays {
		return 0, fmt.Errorf("ways must be within 1..%d, got %d", maxWays, ways)
	}
	sets = sizeKB * 1024 / 64 / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("%dKB/%d-way yields non-power-of-two sets %d", sizeKB, ways, sets)
	}
	return sets, nil
}

// replFactory builds a replacement policy for a sets×ways cache, taking
// over old's arrays where they fit (old may be nil).
type replFactory func(sets, ways int, old Replacement) Replacement

// recycleCache builds a cache as NewCache does, taking over old's tag and
// replacement arrays where their sizes match (old may be nil). The arrays
// it takes are cleared, so the cache starts exactly as a fresh one, and
// detached from old (see reuse).
func recycleCache(name string, sizeKB, ways int, repl replFactory, old *Cache) *Cache {
	sets, err := geometry(sizeKB, ways)
	if err != nil {
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	if old == nil {
		old = &Cache{}
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		wayShift: -1,
		tags:     reuse(&old.tags, sets*ways),
		repl:     repl(sets, ways, old.repl),
	}
	if ways&(ways-1) == 0 {
		for s := 0; 1<<s <= ways; s++ {
			if 1<<s == ways {
				c.wayShift = s
			}
		}
	}
	c.lruFast, _ = c.repl.(*lru)
	c.shipFast, _ = c.repl.(*ship)
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

// rowBase returns the index of a set's first way in the tags column.
func (c *Cache) rowBase(set int) int {
	if c.wayShift >= 0 {
		return set << uint(c.wayShift)
	}
	return set * c.ways
}

// Lookup probes for lineAddr without updating replacement state.
// It returns the way and whether it hit.
func (c *Cache) Lookup(lineAddr uint64) (way int, hit bool) {
	base := c.rowBase(c.setOf(lineAddr))
	tags := c.tags[base : base+c.ways]
	want := lineAddr | tagValid
	for w, t := range tags {
		if t&tagKey == want {
			return w, true
		}
	}
	return -1, false
}

// Access performs a demand lookup, updating hit statistics and replacement
// state. wasPrefetch reports whether the hit line had been brought in by a
// prefetch and not demanded before (the "useful prefetch" signal); the flag
// is cleared so each prefetched line counts once.
func (c *Cache) Access(lineAddr, pc uint64, store bool) (hit, wasPrefetch bool) {
	set := c.setOf(lineAddr)
	base := c.rowBase(set)
	tags := c.tags[base : base+c.ways]
	want := lineAddr | tagValid
	for w, t := range tags {
		if t&tagKey != want {
			continue
		}
		c.Hits++
		if p := c.lruFast; p != nil {
			p.touch(set, w)
		} else if s := c.shipFast; s != nil {
			s.Hit(set, w, pc)
		} else {
			c.repl.Hit(set, w, pc)
		}
		wasPrefetch = t&tagPrefetch != 0
		t &^= tagPrefetch
		if store {
			t |= tagDirty
		}
		tags[w] = t
		return true, wasPrefetch
	}
	c.Misses++
	return false, false
}

// Evicted describes a line pushed out by a fill.
type Evicted struct {
	Line  uint64
	Dirty bool
	Valid bool
}

// Fill inserts lineAddr, evicting if needed. The returned Evicted is valid
// only if a resident line was displaced.
func (c *Cache) Fill(lineAddr, pc uint64, isPrefetch, dirty bool) Evicted {
	set := c.setOf(lineAddr)
	base := c.rowBase(set)
	tags := c.tags[base : base+c.ways]
	want := lineAddr | tagValid
	// One pass finds a resident copy (e.g. a racing fill: refresh and
	// return) or else the first empty way. Valid ways are a prefix of the
	// set (see Cache), so no copy lies beyond the first empty way.
	way := -1
	for w, t := range tags {
		if t&tagValid == 0 {
			way = w
			break
		}
		if t&tagKey == want {
			if dirty {
				tags[w] = t | tagDirty
			}
			return Evicted{}
		}
	}
	var out Evicted
	p, s := c.lruFast, c.shipFast
	if way < 0 {
		switch {
		case p != nil:
			way = p.Victim(set)
		case s != nil:
			way = s.Victim(set)
			s.Evict(set, way)
		default:
			way = c.repl.Victim(set)
			c.repl.Evict(set, way)
		}
		t := tags[way]
		out = Evicted{Line: t & tagLine, Dirty: t&tagDirty != 0, Valid: true}
	}
	if dirty {
		want |= tagDirty
	}
	if isPrefetch {
		want |= tagPrefetch
	}
	tags[way] = want
	switch {
	case p != nil:
		p.touch(set, way)
	case s != nil:
		s.Fill(set, way, pc, isPrefetch)
	default:
		c.repl.Fill(set, way, pc, isPrefetch)
	}
	return out
}

// ResetStats clears hit/miss counters (contents are preserved).
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }

// lru is least-recently-used replacement. Each set's recency order is one
// word of 4-bit way numbers: nibble 0 is the most recently used way and
// nibble ways-1 the victim. A fresh set holds ways-1, …, 1, 0 from nibble
// 0 up, so ways never touched leave lowest index first.
type lru struct {
	order []uint64
	// victimShift is 4*(ways-1), the bit offset of the victim's nibble.
	victimShift uint
}

// nibbles1 and nibbles8 repeat 0x1 and 0x8 in every nibble of a word.
const (
	nibbles1 = 0x1111111111111111
	nibbles8 = 0x8888888888888888
)

// NewLRU returns an LRU replacement policy.
func NewLRU(sets, ways int) Replacement { return recycleLRU(sets, ways, nil) }

// recycleLRU builds an LRU policy on old's order array when old is an LRU
// policy of the same geometry.
func recycleLRU(sets, ways int, old Replacement) Replacement {
	o, ok := old.(*lru)
	if !ok {
		o = &lru{}
	}
	p := &lru{order: reuse(&o.order, sets), victimShift: 4 * uint(ways-1)}
	var fresh uint64
	for w := 0; w < ways; w++ {
		fresh = fresh<<4 | uint64(w)
	}
	for i := range p.order {
		p.order[i] = fresh
	}
	return p
}

// reuse returns *old cleared and detaches it (*old becomes nil) when it
// holds exactly n elements, and a fresh slice of n otherwise.
func reuse[T any](old *[]T, n int) []T {
	s := *old
	if len(s) != n {
		return make([]T, n)
	}
	*old = nil
	clear(s)
	return s
}

// touch moves way to the front of set's order. The nibble that holds way
// is the lowest zero nibble of order^(way in every nibble); the classic
// has-zero-byte test, on nibbles, flags it by its high bit. Nibbles below
// it move up by one and way takes nibble 0; nibbles above it stay.
func (p *lru) touch(set, way int) {
	o := p.order[set]
	w := uint64(way)
	if o&15 == w {
		return
	}
	x := o ^ w*nibbles1
	pos := uint(bits.TrailingZeros64((x-nibbles1)&^x&nibbles8)) - 3 // 4 × way's nibble
	below := uint64(1)<<pos - 1
	p.order[set] = o&^(below<<4|15) | (o&below)<<4 | w
}

// Hit implements Replacement.
func (p *lru) Hit(set, way int, pc uint64) { p.touch(set, way) }

// Fill implements Replacement.
func (p *lru) Fill(set, way int, pc uint64, prefetch bool) { p.touch(set, way) }

// Victim implements Replacement: the way in the last nibble of set's
// order.
func (p *lru) Victim(set int) int { return int(p.order[set] >> p.victimShift & 15) }

// Evict implements Replacement.
func (p *lru) Evict(set, way int) {}
