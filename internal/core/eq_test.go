package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sig(vals ...uint64) StateSig { return StateSig(vals) }

func TestEQInsertEvictFIFO(t *testing.T) {
	q := NewEQ(3)
	for i := uint64(1); i <= 3; i++ {
		ev := q.Insert(sig(i), int(i), 100+i, true, 0, false)
		if ev != nil {
			t.Fatalf("unexpected eviction at insert %d", i)
		}
	}
	if q.Len() != 3 || q.Cap() != 3 {
		t.Fatalf("Len/Cap = %d/%d", q.Len(), q.Cap())
	}
	ev := q.Insert(sig(4), 4, 104, true, 0, false)
	if ev == nil || ev.Sig[0] != 1 || ev.Action != 1 {
		t.Errorf("eviction should return the oldest entry, got %+v", ev)
	}
	// Head after eviction is the second-oldest (S_{t+1}, Algorithm 1 l.28).
	hs, ha, ok := q.Head()
	if !ok || hs[0] != 2 || ha != 2 {
		t.Errorf("Head = (%v,%d,%v), want entry 2", hs, ha, ok)
	}
}

func TestEQDemandRewards(t *testing.T) {
	q := NewEQ(8)
	q.Insert(sig(1), 1, 500, true, 0, false)
	// Unfilled: accurate but late.
	matched, filled := q.OnDemand(500, 20, 12)
	if !matched || filled {
		t.Errorf("OnDemand = (%v,%v), want (true,false)", matched, filled)
	}
	// Second demand must not double-reward.
	if m, _ := q.OnDemand(500, 20, 12); m {
		t.Error("double reward on second demand")
	}
	// Filled path: accurate and timely.
	q.Insert(sig(2), 2, 600, true, 0, false)
	if !q.OnFill(600) {
		t.Fatal("OnFill missed the entry")
	}
	matched, filled = q.OnDemand(600, 20, 12)
	if !matched || !filled {
		t.Errorf("OnDemand after fill = (%v,%v), want (true,true)", matched, filled)
	}
}

func TestEQUntrackedEntriesInvisible(t *testing.T) {
	q := NewEQ(4)
	q.Insert(sig(1), 0, 0, false, -4, true) // no-prefetch entry
	if m, _ := q.OnDemand(0, 20, 12); m {
		t.Error("untracked entry matched a demand")
	}
	if q.OnFill(0) {
		t.Error("untracked entry matched a fill")
	}
}

func TestEQEvictionCarriesImmediateReward(t *testing.T) {
	q := NewEQ(1)
	q.Insert(sig(1), 3, 0, false, -12, true) // out-of-page, R_CL
	ev := q.Insert(sig(2), 4, 700, true, 0, false)
	if ev == nil || !ev.HadReward || ev.Reward != -12 {
		t.Errorf("evicted entry lost its reward: %+v", ev)
	}
	// The unrewarded prefetch entry evicts without a reward (caller assigns
	// R_IN).
	ev = q.Insert(sig(3), 5, 800, true, 0, false)
	if ev == nil || ev.HadReward {
		t.Errorf("in-flight entry should evict unrewarded: %+v", ev)
	}
}

func TestEQRewardDuringResidencySurvivesToEviction(t *testing.T) {
	q := NewEQ(2)
	q.Insert(sig(1), 1, 900, true, 0, false)
	q.OnDemand(900, 20, 12)
	q.Insert(sig(2), 2, 901, true, 0, false)
	ev := q.Insert(sig(3), 3, 902, true, 0, false)
	if ev == nil || !ev.HadReward || ev.Reward != 12 {
		t.Errorf("resident reward lost at eviction: %+v", ev)
	}
}

func TestEQLineReusePointsToNewest(t *testing.T) {
	q := NewEQ(8)
	q.Insert(sig(1), 1, 42, true, 0, false)
	q.OnDemand(42, 20, 12) // reward the first
	q.Insert(sig(2), 2, 42, true, 0, false)
	// The new entry for the same line must be rewardable.
	if m, _ := q.OnDemand(42, 20, 12); !m {
		t.Error("newest entry for a reused line not found")
	}
}

func TestEQEmptyHead(t *testing.T) {
	q := NewEQ(4)
	if _, _, ok := q.Head(); ok {
		t.Error("empty queue should have no head")
	}
}

func TestEQZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewEQ(0)
}

func TestEQNeverExceedsCapacityProperty(t *testing.T) {
	q := NewEQ(16)
	f := func(lines []uint64) bool {
		for i, l := range lines {
			q.Insert(sig(uint64(i)), i%16, l, l%3 != 0, 0, l%3 == 0)
			if q.Len() > q.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refEQ is the evaluation queue's reference model: the same FIFO with a
// Go map as the line index, the structure lineIndex replaced.
type refEQ struct {
	ring   []refEntry
	head   int
	size   int
	byLine map[uint64]int
}

type refEntry struct {
	sig                        uint64
	action                     int
	line                       uint64
	tracked, filled, hasReward bool
	reward                     float64
}

func (q *refEQ) lookup(line uint64) int {
	if i, ok := q.byLine[line]; ok {
		return i
	}
	return -1
}

func (q *refEQ) onDemand(line uint64, rAT, rAL float64) (bool, bool) {
	i := q.lookup(line)
	if i < 0 || q.ring[i].hasReward {
		return false, false
	}
	e := &q.ring[i]
	e.reward, e.hasReward = rAL, true
	if e.filled {
		e.reward = rAT
	}
	return true, e.filled
}

func (q *refEQ) onFill(line uint64) bool {
	i := q.lookup(line)
	if i < 0 {
		return false
	}
	q.ring[i].filled = true
	return true
}

func (q *refEQ) insert(e refEntry) (refEntry, bool) {
	var out refEntry
	evicted := false
	if q.size == len(q.ring) {
		out, evicted = q.ring[q.head], true
		if out.tracked && q.byLine[out.line] == q.head {
			delete(q.byLine, out.line)
		}
		q.head = (q.head + 1) % len(q.ring)
		q.size--
	}
	slot := (q.head + q.size) % len(q.ring)
	q.ring[slot] = e
	if e.tracked {
		q.byLine[e.line] = slot
	}
	q.size++
	return out, evicted
}

// TestEQMatchesMapReference drives the queue and its map-indexed reference
// with the same random insert/evict/OnDemand/OnFill sequences. Lines come
// from a pool smaller than the queue, so a line is often resident in
// several slots at once and the newest must win.
func TestEQMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 256} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		q := NewEQ(capacity)
		ref := &refEQ{ring: make([]refEntry, capacity), byLine: map[uint64]int{}}
		pool := capacity/2 + 2
		for step := 0; step < 50000; step++ {
			line := uint64(rng.Intn(pool)) * 977
			switch op := rng.Intn(10); {
			case op < 5:
				e := refEntry{sig: uint64(step), action: step % 16, line: line, tracked: rng.Intn(4) != 0}
				if !e.tracked {
					e.line, e.reward, e.hasReward = 0, -1, true
				}
				ev := q.Insert(sig(e.sig), e.action, e.line, e.tracked, e.reward, e.hasReward)
				want, evicted := ref.insert(e)
				if (ev != nil) != evicted {
					t.Fatalf("cap %d step %d: evicted = %v, want %v", capacity, step, ev != nil, evicted)
				}
				if evicted && (ev.Sig[0] != want.sig || ev.Action != want.action ||
					ev.Reward != want.reward || ev.HadReward != want.hasReward) {
					t.Fatalf("cap %d step %d: evicted %+v, want %+v", capacity, step, ev, want)
				}
			case op < 8:
				m, f := q.OnDemand(line, 20, 12)
				wm, wf := ref.onDemand(line, 20, 12)
				if m != wm || f != wf {
					t.Fatalf("cap %d step %d: OnDemand(%d) = (%v, %v), want (%v, %v)", capacity, step, line, m, f, wm, wf)
				}
			default:
				if got, want := q.OnFill(line), ref.onFill(line); got != want {
					t.Fatalf("cap %d step %d: OnFill(%d) = %v, want %v", capacity, step, line, got, want)
				}
			}
			hs, ha, ok := q.Head()
			if ok != (ref.size > 0) || ok && (hs[0] != ref.ring[ref.head].sig || ha != ref.ring[ref.head].action) {
				t.Fatalf("cap %d step %d: Head = (%v, %d, %v)", capacity, step, hs, ha, ok)
			}
		}
	}
}

// TestLineIndexMatchesMap checks lineIndex against a map under random
// sequences of the queue's own pattern: a slot is evicted (delOwned)
// before it tracks a new line (put), and a line may be tracked by several
// slots at once, the newest owning its cell. Lines are chosen so probe
// chains run off the table's last cell and wrap around to cell 0, where
// backward-shift deletion must move cells back across the boundary.
func TestLineIndexMatchesMap(t *testing.T) {
	const slots = 4
	x := newLineIndex(slots) // 16 cells
	// Lines whose home is one of the last two cells.
	var tail []uint64
	for l := uint64(1); len(tail) < 6; l++ {
		if x.home(l) >= x.mask-1 {
			tail = append(tail, l)
		}
	}
	for s, l := range tail[:slots] {
		x.put(s, l)
	}
	if x.cells[0] == 0 || x.cells[1] == 0 {
		t.Fatal("probe chains did not wrap around the table end")
	}

	rng := rand.New(rand.NewSource(5))
	x = newLineIndex(slots)
	ref := map[uint64]int{}
	var used [slots]bool
	pool := append(tail, 7, 8, 9, 10)
	for step := 0; step < 20000; step++ {
		s := rng.Intn(slots)
		if used[s] {
			x.delOwned(s)
			if l := x.lines[s]; ref[l] == s+1 {
				delete(ref, l)
			}
		} else {
			l := pool[rng.Intn(len(pool))]
			x.put(s, l)
			ref[l] = s + 1
		}
		used[s] = !used[s]
		n := 0
		for _, c := range x.cells {
			if c != 0 {
				n++
			}
		}
		if n != len(ref) {
			t.Fatalf("step %d: %d cells in use, want %d", step, n, len(ref))
		}
		for _, l := range pool {
			if got, want := x.get(l), ref[l]-1; got != want {
				t.Fatalf("step %d: get(%d) = %d, want %d", step, l, got, want)
			}
		}
	}
}
