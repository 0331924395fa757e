package core

// EQ is Pythia's evaluation queue (§4.2.3): a FIFO of recently taken
// actions awaiting reward assignment. Entries receive rewards in one of
// three ways — immediately on insertion (no-prefetch and out-of-page
// actions), during residency (a demand matches the prefetched line), or at
// eviction (inaccurate). Evicted entries drive the SARSA update.
//
// Entries own their signature storage: inserts COPY the caller's signature
// into per-slot buffers (allocated once, reused forever), so the agent can
// reuse a single ResolvedSig across demands and the queue stays
// allocation-free in steady state. Entries inserted with InsertResolved
// also carry the state's resolved row offsets, so the SARSA update at
// eviction never re-hashes. Eviction copies nothing: the outgoing slot's
// buffers are swapped with the queue's spare pair, which the returned
// Evicted aliases.

type eqEntry struct {
	rs        ResolvedSig
	action    int
	tracked   bool // prefetched a line (index.lines holds it) that demands and fills can match
	filled    bool // prefetch fill observed (timeliness bit)
	hasReward bool
	reward    float64
}

// EQ is the evaluation queue.
type EQ struct {
	ring []eqEntry
	head int // oldest entry
	size int
	// index maps each tracked line to the slot of its newest entry for
	// O(1) demand/fill search.
	index lineIndex
	// spare is the signature buffer pair no slot holds. An eviction swaps
	// it with the outgoing slot's, so ev aliases the evicted signature
	// without a copy and stays usable until the next Insert.
	spare ResolvedSig
	ev    Evicted
}

// NewEQ builds an evaluation queue of the given capacity.
func NewEQ(capacity int) *EQ {
	if capacity <= 0 {
		panic("core: EQ capacity must be positive")
	}
	return &EQ{ring: make([]eqEntry, capacity), index: newLineIndex(capacity)}
}

// Len returns the number of resident entries.
func (q *EQ) Len() int { return q.size }

// Cap returns the queue capacity.
func (q *EQ) Cap() int { return len(q.ring) }

// lineIndex maps tracked lines to EQ slots. It replaces a map[uint64]int
// in the style of cache's missTable: a fixed-size open-addressing table
// with linear probing, sized to stay at or below 25% load. A cell holds
// only a slot number and the slot's line lives in lines, so the index
// costs 24 bytes per EQ slot (6 KB for the basic 256-entry queue) and
// stays cache-resident. Each slot tracks at most one line, so at most
// capacity lines are indexed; a line's newest insert takes over its cell,
// and eviction deletes the cell only while it still points at the evicted
// slot. Deletion uses backward-shift compaction, so there are no
// tombstones. The table has no iteration order, so nothing observable
// depends on its layout.
type lineIndex struct {
	shift uint
	mask  uint64
	cells []int32  // EQ slot + 1; 0 marks an empty cell
	lines []uint64 // the line each EQ slot tracks
}

func newLineIndex(capacity int) lineIndex {
	size, b := 16, uint(4)
	for size < 4*capacity {
		size <<= 1
		b++
	}
	return lineIndex{shift: 64 - b, mask: uint64(size - 1), cells: make([]int32, size), lines: make([]uint64, capacity)}
}

// home returns a line's preferred cell: the top bits of a Fibonacci
// multiply, which spreads runs of consecutive lines.
func (x *lineIndex) home(line uint64) uint64 { return (line * 0x9E3779B97F4A7C15) >> x.shift }

// find returns the cell holding line, or, with ok false, the empty cell
// that ends its probe chain.
func (x *lineIndex) find(line uint64) (i uint64, ok bool) {
	for i = x.home(line); x.cells[i] != 0; i = (i + 1) & x.mask {
		if x.lines[x.cells[i]-1] == line {
			return i, true
		}
	}
	return i, false
}

// get returns the slot of line's newest entry, or -1.
func (x *lineIndex) get(line uint64) int {
	if i, ok := x.find(line); ok {
		return int(x.cells[i]) - 1
	}
	return -1
}

// put makes slot track line, taking over the cell of any older entry for
// the line. No cell may point at slot.
func (x *lineIndex) put(slot int, line uint64) {
	x.lines[slot] = line
	i, _ := x.find(line)
	x.cells[i] = int32(slot) + 1
}

// delOwned removes slot's line if its cell points at slot, compacting the
// probe chain behind it (backward-shift deletion).
func (x *lineIndex) delOwned(slot int) {
	i, ok := x.find(x.lines[slot])
	if !ok || int(x.cells[i])-1 != slot {
		return
	}
	for {
		x.cells[i] = 0
		j := i
		for {
			j = (j + 1) & x.mask
			if x.cells[j] == 0 {
				return
			}
			// The cell at j can fill the hole at i only if i lies on its
			// probe path, i.e. cyclically between its home cell and j.
			if k := x.home(x.lines[x.cells[j]-1]); (j-k)&x.mask >= (j-i)&x.mask {
				x.cells[i] = x.cells[j]
				i = j
				break
			}
		}
	}
}

// OnDemand checks whether a demand to line matches an in-flight action and,
// if so, assigns the accurate-timely or accurate-late reward based on the
// filled bit (Algorithm 1 lines 6-11). It reports what it found.
func (q *EQ) OnDemand(line uint64, rAT, rAL float64) (matched, wasFilled bool) {
	i := q.index.get(line)
	if i < 0 {
		return false, false
	}
	e := &q.ring[i]
	if e.hasReward {
		return false, false
	}
	if e.filled {
		e.reward = rAT
	} else {
		e.reward = rAL
	}
	e.hasReward = true
	return true, e.filled
}

// OnFill sets the filled bit of the matching entry (Algorithm 1 line 31).
func (q *EQ) OnFill(line uint64) bool {
	i := q.index.get(line)
	if i < 0 {
		return false
	}
	q.ring[i].filled = true
	return true
}

// Evicted is an entry popped by an insertion, carrying everything the SARSA
// update needs. It is owned by the queue: the Evicted itself, Sig and the
// resolved signature behind it are valid until the next Insert.
type Evicted struct {
	Sig       StateSig
	Action    int
	Reward    float64
	HadReward bool // reward was assigned before eviction
	// rs is the evicted entry's resolved signature (offset-bearing only for
	// InsertResolved entries).
	rs *ResolvedSig
}

// Insert pushes a new action into the queue. line/tracked describe the
// prefetched address; reward/hasReward carry an immediate reward
// (no-prefetch, out-of-page). When the queue is full the oldest entry is
// evicted and returned; otherwise Insert returns nil. The signature is
// copied; sig is not retained.
func (q *EQ) Insert(sig StateSig, action int, line uint64, tracked bool, reward float64, hasReward bool) *Evicted {
	return q.insert(sig, nil, action, line, tracked, reward, hasReward)
}

// InsertResolved is Insert for a resolved signature: the entry additionally
// keeps the precomputed row offsets so the eviction-time SARSA update is
// hash-free. r is copied, not retained.
func (q *EQ) InsertResolved(r *ResolvedSig, action int, line uint64, tracked bool, reward float64, hasReward bool) *Evicted {
	return q.insert(r.vals, r.offs, action, line, tracked, reward, hasReward)
}

func (q *EQ) insert(vals []uint64, offs []int32, action int, line uint64, tracked bool, reward float64, hasReward bool) *Evicted {
	var out *Evicted
	slot := q.head + q.size
	if slot >= len(q.ring) {
		slot -= len(q.ring)
	}
	e := &q.ring[slot]
	if q.size == len(q.ring) {
		// Full: slot is the head. Evict it by swapping its signature
		// buffers with the spare pair, which the new entry then fills.
		if e.tracked {
			q.index.delOwned(slot)
		}
		q.spare, e.rs = e.rs, q.spare
		q.ev = Evicted{
			Sig: StateSig(q.spare.vals), Action: e.action,
			Reward: e.reward, HadReward: e.hasReward, rs: &q.spare,
		}
		out = &q.ev
		q.head++
		if q.head == len(q.ring) {
			q.head = 0
		}
		q.size--
	}
	e.rs.copyFrom(vals, offs)
	e.action = action
	e.tracked = tracked
	e.filled = false
	e.reward = reward
	e.hasReward = hasReward
	if tracked {
		q.index.put(slot, line)
	}
	q.size++
	return out
}

// Head returns the oldest resident entry's state-action pair: after an
// eviction this is (S_{t+1}, A_{t+1}) for the SARSA update (Algorithm 1
// line 28). The signature aliases the entry; it is valid until the entry is
// evicted.
func (q *EQ) Head() (sig StateSig, action int, ok bool) {
	if q.size == 0 {
		return nil, 0, false
	}
	e := &q.ring[q.head]
	return StateSig(e.rs.vals), e.action, true
}

// HeadResolved is Head returning the entry's resolved signature. Offsets
// are present only for entries inserted via InsertResolved.
func (q *EQ) HeadResolved() (rs *ResolvedSig, action int, ok bool) {
	if q.size == 0 {
		return nil, 0, false
	}
	e := &q.ring[q.head]
	return &e.rs, e.action, true
}
