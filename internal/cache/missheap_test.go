package cache

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is missHeap driven through container/heap, the algorithm
// missHeap's sift loops must replicate.
type refHeap []*missEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].complete < h[j].complete }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*missEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// TestMissHeapMatchesContainerHeap drives missHeap and a container/heap
// reference with the same random pushes and pops and requires every pop
// to return the same entry. Completion cycles come from a handful of
// values, so most pops choose among equal keys: the order of those ties
// decides fill order, and through it replacement state, so it must be
// container/heap's, not merely some valid min-heap order.
func TestMissHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(8)
		var h missHeap
		var ref refHeap
		for step := 0; step < 20_000; step++ {
			if len(h) != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d entries, reference %d", seed, step, len(h), len(ref))
			}
			if len(h) == 0 || (len(h) < 96 && rng.Intn(5) < 3) {
				e := &missEntry{complete: int64(rng.Intn(keys)) + int64(step/64)}
				h.pushEntry(e)
				heap.Push(&ref, e)
				continue
			}
			got, want := h.popEntry(), heap.Pop(&ref).(*missEntry)
			if got != want {
				t.Fatalf("seed %d step %d: popped entry complete=%d (%p), reference popped complete=%d (%p)",
					seed, step, got.complete, got, want.complete, want)
			}
		}
	}
}
