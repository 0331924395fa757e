package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// line is one way's state, as tests read it.
type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool
}

// at reads one way's state out of its tag word.
func (c *Cache) at(set, way int) line {
	t := c.tags[set*c.ways+way]
	return line{tag: t & tagLine, valid: t&tagValid != 0, dirty: t&tagDirty != 0, prefetch: t&tagPrefetch != 0}
}

func newLRUCache(sizeKB, ways int) *Cache {
	return NewCache("test", sizeKB, ways, NewLRU)
}

func TestCacheGeometry(t *testing.T) {
	c := newLRUCache(32, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("32KB/8w: %d sets × %d ways", c.Sets(), c.Ways())
	}
	if c.Name() != "test" {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets should panic")
		}
	}()
	NewCache("bad", 33, 8, NewLRU)
}

func TestFillThenHit(t *testing.T) {
	c := newLRUCache(32, 8)
	if _, hit := c.Lookup(100); hit {
		t.Fatal("empty cache should miss")
	}
	c.Fill(100, 1, false, false)
	if _, hit := c.Lookup(100); !hit {
		t.Fatal("filled line should hit")
	}
	hit, wasPf := c.Access(100, 1, false)
	if !hit || wasPf {
		t.Errorf("Access = (%v,%v), want (true,false)", hit, wasPf)
	}
	if c.Hits != 1 || c.Misses != 0 {
		t.Errorf("stats %d/%d", c.Hits, c.Misses)
	}
}

func TestPrefetchBitOnce(t *testing.T) {
	c := newLRUCache(32, 8)
	c.Fill(200, 1, true, false)
	_, wasPf := c.Access(200, 1, false)
	if !wasPf {
		t.Error("first demand to prefetched line should report wasPrefetch")
	}
	_, wasPf = c.Access(200, 1, false)
	if wasPf {
		t.Error("wasPrefetch must clear after the first demand")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache("tiny", 1, 2, NewLRU)            // 8 sets × 2 ways
	set0 := func(i uint64) uint64 { return i * 8 } // keep everything in set 0
	c.Fill(set0(1), 0, false, false)
	c.Fill(set0(2), 0, false, false)
	c.Access(set0(1), 0, false) // make line 1 recently used
	ev := c.Fill(set0(3), 0, false, false)
	if !ev.Valid || ev.Line != set0(2) {
		t.Errorf("LRU should evict line %d, evicted %+v", set0(2), ev)
	}
	if _, hit := c.Lookup(set0(1)); !hit {
		t.Error("recently used line was evicted")
	}
}

func TestDirtyEvictionSignalled(t *testing.T) {
	c := NewCache("tiny", 1, 1, NewLRU) // direct mapped, 16 sets
	c.Fill(0, 0, false, true)           // dirty
	ev := c.Fill(16, 0, false, false)   // same set (16 sets → line%16)
	if !ev.Valid || !ev.Dirty || ev.Line != 0 {
		t.Errorf("dirty eviction not signalled: %+v", ev)
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := NewCache("tiny", 1, 1, NewLRU)
	c.Fill(0, 0, false, false)
	c.Access(0, 0, true) // store
	ev := c.Fill(16, 0, false, false)
	if !ev.Dirty {
		t.Error("store did not mark the line dirty")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := newLRUCache(32, 8)
	c.Fill(7, 0, false, false)
	ev := c.Fill(7, 0, false, true)
	if ev.Valid {
		t.Error("refilling a resident line must not evict")
	}
	// The refill's dirty bit sticks.
	evict := c.Fill(7+uint64(c.Sets()), 0, false, false)
	_ = evict
	c2 := NewCache("tiny", 1, 1, NewLRU)
	c2.Fill(3, 0, false, false)
	c2.Fill(3, 0, false, true)
	ev = c2.Fill(3+16, 0, false, false)
	if !ev.Dirty {
		t.Error("refill dirty bit lost")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := newLRUCache(32, 8)
	c.Fill(9, 0, false, false)
	c.Access(9, 0, false)
	c.Access(10, 0, false)
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("stats not reset")
	}
	if _, hit := c.Lookup(9); !hit {
		t.Error("reset should preserve contents")
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	c := NewCache("tiny", 1, 2, NewLRU)
	f := func(lines []uint64) bool {
		for _, l := range lines {
			c.Fill(l%1024, 0, false, false)
		}
		// Count valid lines per set.
		for set := 0; set < c.Sets(); set++ {
			n := 0
			for w := 0; w < c.Ways(); w++ {
				if c.at(set, w).valid {
					n++
				}
			}
			if n > c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLookupAfterFillProperty(t *testing.T) {
	c := newLRUCache(256, 16)
	f := func(line uint64) bool {
		line %= 1 << 30
		c.Fill(line, 0, false, false)
		_, hit := c.Lookup(line)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCacheMatchesReference drives the cache and the reference cache
// (reference_test.go) through the same random Fill, Access and Lookup
// sequences and compares every result, both hit counters and every way's
// state after each step. It covers LRU at 1, 2, 3, 4, 8 and 16 ways and
// SHiP and DRRIP beside it. The line pool holds about twice a set's
// ways per set, so hits, refills of resident lines and evictions are all
// common, and it includes the largest line address.
func TestCacheMatchesReference(t *testing.T) {
	policies := []struct {
		name      string
		repl, ref func(sets, ways int) Replacement
	}{
		{"lru", NewLRU, newRefLRU},
		{"ship", NewSHiP, newRefSHiP},
		{"drrip", NewDRRIP, newRefDRRIP},
	}
	const sets = 16
	for _, pol := range policies {
		for _, ways := range []int{1, 2, 3, 4, 8, 16} {
			t.Run(fmt.Sprintf("%s/%dway", pol.name, ways), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ways)))
				c := NewCache("test", ways, ways, pol.repl) // 16 sets
				ref := newRefCache(sets, ways, pol.ref(sets, ways))
				pool := []uint64{tagLine, 0}
				for len(pool) < 2*sets*ways {
					pool = append(pool, rng.Uint64()>>6)
				}
				for step := 0; step < 20_000; step++ {
					l := pool[rng.Intn(len(pool))]
					pc := 0x400 + uint64(rng.Intn(8))*4
					var got, want any
					switch op := rng.Intn(3); op {
					case 0:
						pf, dirty := rng.Intn(2) == 0, rng.Intn(4) == 0
						got, want = c.Fill(l, pc, pf, dirty), ref.Fill(l, pc, pf, dirty)
					case 1:
						store := rng.Intn(4) == 0
						h1, p1 := c.Access(l, pc, store)
						h2, p2 := ref.Access(l, pc, store)
						got, want = [2]bool{h1, p1}, [2]bool{h2, p2}
					case 2:
						w1, h1 := c.Lookup(l)
						w2, h2 := ref.Lookup(l)
						got, want = fmt.Sprint(w1, h1), fmt.Sprint(w2, h2)
					}
					if got != want {
						t.Fatalf("step %d, op on line %#x: got %v, want %v", step, l, got, want)
					}
					if c.Hits != ref.hits || c.Misses != ref.misses {
						t.Fatalf("step %d: hits/misses %d/%d, want %d/%d", step, c.Hits, c.Misses, ref.hits, ref.misses)
					}
					for s := 0; s < sets; s++ {
						for w := 0; w < ways; w++ {
							if g, r := c.at(s, w), ref.at(s, w); g != r {
								t.Fatalf("step %d: set %d way %d holds %+v, want %+v", step, s, w, g, r)
							}
						}
					}
				}
			})
		}
	}
}

// TestLRUMatchesReference drives LRU replacement on its own, without a
// cache, against the stamp-based reference: random Hit and Fill touches
// and Victim queries, on fresh and partly touched sets too, at every
// associativity from 1 to 16.
func TestLRUMatchesReference(t *testing.T) {
	const sets = 4
	for ways := 1; ways <= maxWays; ways++ {
		rng := rand.New(rand.NewSource(int64(ways)))
		p, ref := NewLRU(sets, ways), newRefLRU(sets, ways)
		for step := 0; step < 5000; step++ {
			set, way := rng.Intn(sets), rng.Intn(ways)
			switch rng.Intn(3) {
			case 0:
				p.Hit(set, way, 0)
				ref.Hit(set, way, 0)
			case 1:
				p.Fill(set, way, 0, false)
				ref.Fill(set, way, 0, false)
			}
			for s := 0; s < sets; s++ {
				if got, want := p.Victim(s), ref.Victim(s); got != want {
					t.Fatalf("%d ways, step %d: set %d victim %d, want %d", ways, step, s, got, want)
				}
			}
		}
	}
}

// rripPolicy is a SHiP or DRRIP policy whose RRPVs a test can read.
type rripPolicy interface {
	Replacement
	rrpvAt(set, way int) uint8
}

// TestRRIPMatchesReference drives SHiP and DRRIP on their own, without a
// cache, against the per-way references: random Hit, Fill, Victim and
// Evict calls, and the cache's own Victim, Evict, Fill sequence, at every
// associativity from 1 to 16. After each step it compares every way's
// RRPV, and SHiP's SHCT or DRRIP's selector and BRRIP counter. A few PCs
// share the SHCT, so counters saturate at both ends.
func TestRRIPMatchesReference(t *testing.T) {
	policies := []struct {
		name      string
		repl, ref func(sets, ways int) Replacement
	}{
		{"ship", NewSHiP, newRefSHiP},
		{"drrip", NewDRRIP, newRefDRRIP},
	}
	const sets = 4 // DRRIP: an SRRIP leader, a BRRIP leader, two followers
	for _, pol := range policies {
		for ways := 1; ways <= maxWays; ways++ {
			rng := rand.New(rand.NewSource(int64(ways)))
			p, ref := pol.repl(sets, ways).(rripPolicy), pol.ref(sets, ways).(rripPolicy)
			for step := 0; step < 4000; step++ {
				set, way := rng.Intn(sets), rng.Intn(ways)
				pc := 0x400 + uint64(rng.Intn(4))*4
				pf := rng.Intn(4) == 0
				switch op := rng.Intn(5); op {
				case 0:
					p.Hit(set, way, pc)
					ref.Hit(set, way, pc)
				case 1:
					p.Fill(set, way, pc, pf)
					ref.Fill(set, way, pc, pf)
				case 2:
					p.Evict(set, way)
					ref.Evict(set, way)
				default:
					got, want := p.Victim(set), ref.Victim(set)
					if got != want {
						t.Fatalf("%s %d ways, step %d: set %d victim %d, want %d", pol.name, ways, step, set, got, want)
					}
					if op == 4 {
						p.Evict(set, got)
						ref.Evict(set, want)
						p.Fill(set, got, pc, pf)
						ref.Fill(set, want, pc, pf)
					}
				}
				for s := 0; s < sets; s++ {
					for w := 0; w < ways; w++ {
						if g, r := p.rrpvAt(s, w), ref.rrpvAt(s, w); g != r {
							t.Fatalf("%s %d ways, step %d: set %d way %d RRPV %d, want %d", pol.name, ways, step, s, w, g, r)
						}
					}
				}
				switch p := p.(type) {
				case *ship:
					if r := ref.(*refSHiP); !bytes.Equal(p.shct, r.shct) {
						t.Fatalf("ship %d ways, step %d: SHCT differs from the reference", ways, step)
					}
				case *drrip:
					if r := ref.(*refDRRIP); p.psel != r.psel || p.counter != r.counter {
						t.Fatalf("drrip %d ways, step %d: psel/counter %d/%d, want %d/%d", ways, step, p.psel, p.counter, r.psel, r.counter)
					}
				}
			}
		}
	}
}
