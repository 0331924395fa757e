package cache

import (
	"math/rand"
	"testing"
)

// TestMissTableMatchesMap drives the open-addressing table and a reference
// map through the same randomized insert/lookup/delete stream, including
// adversarial keys (dense strided lines, per-core high-bit offsets, probe
// collisions at bounded occupancy) and checks they always agree.
func TestMissTableMatchesMap(t *testing.T) {
	const capacity = 96 // MSHRs + PrefetchBudget at the Table 5 default
	tab := newMissTable(capacity, nil)
	ref := make(map[uint64]*missEntry)
	rng := rand.New(rand.NewSource(1))

	key := func() uint64 {
		base := uint64(rng.Intn(4)) << 56 // per-core address-space offsets
		switch rng.Intn(3) {
		case 0:
			return base + uint64(rng.Intn(512)) // dense, collides in low bits
		case 1:
			return base + uint64(rng.Intn(64))*64 // strided
		default:
			return base + rng.Uint64()>>16
		}
	}

	live := make([]uint64, 0, capacity)
	for op := 0; op < 200_000; op++ {
		if len(live) < capacity && (len(live) == 0 || rng.Intn(2) == 0) {
			k := key()
			if _, ok := ref[k]; ok {
				continue
			}
			e := &missEntry{line: k}
			tab.put(k, e)
			ref[k] = e
			live = append(live, k)
		} else {
			i := rng.Intn(len(live))
			k := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if tab.get(k) != ref[k] {
				t.Fatalf("op %d: get(%#x) = %p, want %p", op, k, tab.get(k), ref[k])
			}
			tab.del(k)
			delete(ref, k)
			if tab.get(k) != nil {
				t.Fatalf("op %d: key %#x still present after delete", op, k)
			}
		}
		// Spot-check a random live key and a random absent key.
		if len(live) > 0 {
			k := live[rng.Intn(len(live))]
			if tab.get(k) != ref[k] {
				t.Fatalf("op %d: live key %#x lookup diverged", op, k)
			}
		}
		if k := key(); ref[k] == nil && tab.get(k) != nil {
			t.Fatalf("op %d: absent key %#x found", op, k)
		}
		if tab.size() != len(ref) {
			t.Fatalf("op %d: size %d, want %d", op, tab.size(), len(ref))
		}
	}
}
