// Package cache implements the on-chip memory hierarchy: set-associative
// caches with LRU and SHiP replacement, MSHR-style outstanding-miss tracking
// with miss merging, and the three-level L1D/L2/LLC hierarchy that drives
// prefetchers and the DRAM model. It mirrors the simulated system of the
// paper's Table 5.
package cache

import "fmt"

// tagValid marks a resident way in the packed tag array. Line addresses are
// byte addresses shifted right by 6, so they always fit below bit 63 and the
// valid bit can ride in the tag word itself: an 8-way set's hit scan compares
// eight contiguous uint64s — a single 64-byte cache line — with no branches
// on a separate valid flag.
const tagValid = 1 << 63

// lineMeta holds the per-line state that the hit scan does not need. Keeping
// it in a parallel array keeps the scan's footprint to the tag words alone;
// metadata is touched only on hits, fills, and evictions.
type lineMeta struct {
	dirty    bool
	prefetch bool // filled by a prefetch and not yet demanded
}

// line is a reconstructed per-way view used by tests and debugging; the
// cache itself stores columns (tags, meta), not an array of these.
type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool
}

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
	// Evict notes that (set, way) was evicted; reused reports whether the
	// line saw a demand hit during residency (used by SHiP training).
	Evict(set, way int, reused bool)
}

// Cache is a single set-associative cache level. Storage is structure-of-
// arrays: tags (with the valid bit packed in) separate from metadata, so the
// dominant operation — the tag scan — reads one contiguous run of words.
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
	// LRU (L1 and L2 always are): Access/Fill bump the stamp directly
	// instead of paying an interface dispatch per hit. Behaviour is
	// identical to calling repl.Hit/repl.Fill.
	lruFast *lru

	// Hits and Misses count demand lookups.
	Hits, Misses int64

	meta []lineMeta
	repl Replacement
	name string
}

// NewCache builds a cache of sizeKB with the given associativity and
// replacement policy. Sets must come out a power of two.
func NewCache(name string, sizeKB, ways int, repl func(sets, ways int) Replacement) *Cache {
	return recycleCache(name, sizeKB, ways, func(sets, ways int, _ Replacement) Replacement { return repl(sets, ways) }, nil)
}

// replFactory builds a replacement policy for a sets×ways cache, taking
// over old's arrays where they fit (old may be nil).
type replFactory func(sets, ways int, old Replacement) Replacement

// recycleCache builds a cache as NewCache does, taking over old's tag,
// metadata and replacement arrays where their sizes match (old may be
// nil). The arrays it takes are cleared, so the cache starts exactly as a
// fresh one, and detached from old (see reuse).
func recycleCache(name string, sizeKB, ways int, repl replFactory, old *Cache) *Cache {
	sets := sizeKB * 1024 / 64 / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %dKB/%d-way yields non-power-of-two sets %d", name, sizeKB, ways, sets))
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
		meta:     reuse(&old.meta, sets*ways),
		repl:     repl(sets, ways, old.repl),
	}
	if ways&(ways-1) == 0 {
		for s := 0; 1<<s <= ways; s++ {
			if 1<<s == ways {
				c.wayShift = s
			}
		}
	}
	if p, ok := c.repl.(*lru); ok {
		c.lruFast = p
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

// rowBase returns the index of a set's first way in the tags/meta columns.
func (c *Cache) rowBase(set int) int {
	if c.wayShift >= 0 {
		return set << uint(c.wayShift)
	}
	return set * c.ways
}

// at reconstructs one way's state (test hook).
func (c *Cache) at(set, way int) line {
	idx := set*c.ways + way
	t, m := c.tags[idx], c.meta[idx]
	return line{tag: t &^ tagValid, valid: t&tagValid != 0, dirty: m.dirty, prefetch: m.prefetch}
}

// Lookup probes for lineAddr without updating replacement state.
// It returns the way and whether it hit.
func (c *Cache) Lookup(lineAddr uint64) (way int, hit bool) {
	base := c.rowBase(c.setOf(lineAddr))
	tags := c.tags[base : base+c.ways]
	want := lineAddr | tagValid
	for w := range tags {
		if tags[w] == want {
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
	way := -1
	for w := range tags {
		if tags[w] == want {
			way = w
			break
		}
	}
	if way < 0 {
		c.Misses++
		return false, false
	}
	c.Hits++
	idx := base + way
	if p := c.lruFast; p != nil {
		p.clock++
		p.stamp[idx] = p.clock
	} else {
		c.repl.Hit(set, way, pc)
	}
	m := &c.meta[idx]
	wasPrefetch = m.prefetch
	m.prefetch = false
	if store {
		m.dirty = true
	}
	return true, wasPrefetch
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
	// One pass finds both a resident copy (e.g. a racing fill: refresh and
	// return) and the first invalid way.
	way := -1
	for w := range tags {
		t := tags[w]
		if t == want {
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
		idx := base + way
		m := c.meta[idx]
		out = Evicted{Line: c.tags[idx] &^ tagValid, Dirty: m.dirty, Valid: true}
		c.repl.Evict(set, way, !m.prefetch) // untouched prefetch counts as dead on arrival
	}
	idx := base + way
	c.tags[idx] = want
	c.meta[idx] = lineMeta{dirty: dirty, prefetch: isPrefetch}
	if p := c.lruFast; p != nil {
		p.clock++
		p.stamp[idx] = p.clock
	} else {
		c.repl.Fill(set, way, pc, isPrefetch)
	}
	return out
}

// Invalidate removes lineAddr if present and returns whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	base := c.rowBase(c.setOf(lineAddr))
	tags := c.tags[base : base+c.ways]
	want := lineAddr | tagValid
	for w := range tags {
		if tags[w] == want {
			c.tags[base+w] = 0
			return true, c.meta[base+w].dirty
		}
	}
	return false, false
}

// ResetStats clears hit/miss counters (contents are preserved).
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }

// lru is least-recently-used replacement via a monotonic use stamp.
type lru struct {
	ways  int
	stamp []int64
	clock int64
}

// NewLRU returns an LRU replacement policy.
func NewLRU(sets, ways int) Replacement { return recycleLRU(sets, ways, nil) }

// recycleLRU builds an LRU policy on old's stamp array when old is an LRU
// policy of the same geometry.
func recycleLRU(sets, ways int, old Replacement) Replacement {
	o, ok := old.(*lru)
	if !ok {
		o = &lru{}
	}
	return &lru{ways: ways, stamp: reuse(&o.stamp, sets*ways)}
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

func (p *lru) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// Hit implements Replacement.
func (p *lru) Hit(set, way int, pc uint64) { p.touch(set, way) }

// Fill implements Replacement.
func (p *lru) Fill(set, way int, pc uint64, prefetch bool) { p.touch(set, way) }

// Victim implements Replacement.
func (p *lru) Victim(set int) int {
	base := set * p.ways
	st := p.stamp[base : base+p.ways]
	best, bestStamp := 0, st[0]
	for w := 1; w < len(st); w++ {
		if st[w] < bestStamp {
			best, bestStamp = w, st[w]
		}
	}
	return best
}

// Evict implements Replacement.
func (p *lru) Evict(set, way int, reused bool) {}
