package cache

// missTable maps outstanding miss line addresses to their entries. It
// replaces a map[uint64]*missEntry on the miss path: occupancy is bounded
// by MSHRs+PrefetchBudget, so a fixed-size open-addressing table with
// linear probing stays under 25% load and resolves get/put/del in a probe
// or two without hashing overhead or map bucket bookkeeping. Deletion uses
// backward-shift compaction, so there are no tombstones to accumulate.
// The table is pure lookup structure: nothing observable depends on its
// iteration order (it has none), so swapping it for the map cannot change
// simulation results.
type missTable struct {
	mask       uint64
	probeShift uint
	lines      []uint64
	entries    []*missEntry
	n          int
}

// newMissTable sizes the table to keep load factor at or below 25% for
// capacity live entries. It takes over old's arrays, cleared, when they
// are of that size (old may be nil; see reuse).
func newMissTable(capacity int, old *missTable) *missTable {
	size := 16
	for size < 4*capacity {
		size <<= 1
	}
	b := uint(0)
	for 1<<b < size {
		b++
	}
	if old == nil {
		old = &missTable{}
	}
	return &missTable{
		mask:       uint64(size - 1),
		probeShift: 64 - b,
		lines:      reuse(&old.lines, size),
		entries:    reuse(&old.entries, size),
	}
}

// home returns the preferred slot for a line: the top bits of a Fibonacci
// multiply, which spread both dense strided lines and per-core high-bit
// offsets.
func (t *missTable) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> t.probeShift
}

// get returns the entry for line, or nil.
func (t *missTable) get(line uint64) *missEntry {
	i := t.home(line)
	for {
		e := t.entries[i]
		if e == nil {
			return nil
		}
		if t.lines[i] == line {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// put inserts an entry for a line that is not present (outstanding misses
// are unique per line; merges update the existing entry instead).
func (t *missTable) put(line uint64, e *missEntry) {
	i := t.home(line)
	for t.entries[i] != nil {
		i = (i + 1) & t.mask
	}
	t.lines[i], t.entries[i] = line, e
	t.n++
}

// del removes a present line, compacting the probe chain behind it
// (backward-shift deletion) so lookups never need tombstones.
func (t *missTable) del(line uint64) {
	i := t.home(line)
	for t.lines[i] != line || t.entries[i] == nil {
		i = (i + 1) & t.mask
	}
	for {
		t.entries[i] = nil
		j := i
		for {
			j = (j + 1) & t.mask
			if t.entries[j] == nil {
				t.n--
				return
			}
			// An entry at j can fill the hole at i only if i lies on j's
			// probe path, i.e. cyclically between j's home slot and j.
			if k := t.home(t.lines[j]); (j-k)&t.mask >= (j-i)&t.mask {
				t.lines[i], t.entries[i] = t.lines[j], t.entries[j]
				i = j
				break
			}
		}
	}
}

// size returns the number of live entries (test hook).
func (t *missTable) size() int { return t.n }
