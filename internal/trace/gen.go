package trace

import (
	"math"

	"pythia/internal/mem"
)

// Generators synthesize workload traces from composable access-pattern
// "actors". Each actor models one pattern class discussed in the paper:
// sequential streams, per-PC strides, in-page delta chains, spatial region
// footprints, pointer chases, graph frontier scans, and server-style
// low-locality accesses. A workload Spec mixes several actors with weights
// and an instruction-gap distribution that sets memory intensity.

// Actor produces one access at a time for a single pattern.
type Actor interface {
	// Next returns the next (pc, addr, store) triple for this pattern.
	Next(rng *Rand) (pc, addr uint64, store bool)
}

// WeightedActor pairs an actor with a selection weight.
type WeightedActor struct {
	Actor  Actor
	Weight int
}

// Spec describes a synthetic workload.
type Spec struct {
	// Actors is the weighted mix of access patterns.
	Actors []WeightedActor
	// MeanGap is the mean number of non-memory instructions between
	// consecutive memory accesses. Lower means more memory intensive.
	MeanGap int
	// Seed makes the trace deterministic.
	Seed int64
	// StoreFrac is the fraction of accesses converted to stores
	// (applied on top of what actors report), in [0,1).
	StoreFrac float64
	// HotFrac is the fraction of accesses diverted to a small cache-resident
	// hot region, modelling the cache-hitting majority of real workloads
	// (controls the LLC MPKI of the trace).
	HotFrac float64
	// HotLines sizes the hot region in cache lines (default 192, L1-sized).
	HotLines int
}

// GenVersion identifies the generator output: any change that alters the
// record sequence a Spec produces must bump it, so on-disk trace caches
// keyed on it (internal/stream) invalidate instead of replaying stale data.
const GenVersion = 1

// Generate materializes n records from the spec.
func (s Spec) Generate(name, suite string, n int) *Trace {
	g := s.Generator(n)
	recs := make([]Record, g.Remaining())
	for i := range recs {
		recs[i], _ = g.Next()
	}
	return &Trace{Name: name, Suite: suite, Records: recs}
}

// Gen produces a Spec's records one at a time, in exactly the order
// Generate materializes them, so callers can stream arbitrarily long traces
// in constant memory. It implements Iter.
type Gen struct {
	spec Spec
	rng  *Rand
	// The per-record Intn draws' divisors: the hot line, the gap and the
	// actor pick.
	hotLine, gap, pick divisor
	hotBase            uint64
	left               int
}

// Generator returns an iterator over the first n records of the spec. The
// spec's actors carry state, so each Generator call needs a fresh Spec
// (e.g. from Workload.Spec).
func (s Spec) Generator(n int) *Gen {
	g := &Gen{spec: s, rng: NewRand(s.Seed), left: n, hotBase: region(30)}
	total := s.totalWeight()
	if total == 0 {
		g.left = 0
	}
	hotLines := s.HotLines
	if hotLines <= 0 {
		hotLines = 192
	}
	g.hotLine, g.gap, g.pick = newDivisor(hotLines), newDivisor(2*s.MeanGap+1), newDivisor(total)
	return g
}

// totalWeight sums the actors' selection weights.
func (s Spec) totalWeight() int {
	total := 0
	for _, wa := range s.Actors {
		total += wa.Weight
	}
	return total
}

// Remaining returns how many records the generator has yet to produce.
func (g *Gen) Remaining() int {
	if g.left < 0 {
		return 0
	}
	return g.left
}

// FillChunk implements Iter: it appends up to max records to c's
// columns, producing exactly the sequence repeated Next calls would —
// both run the same generation step, so the stream equivalence tests and
// the on-disk cache (keyed by GenVersion) see identical output.
func (g *Gen) FillChunk(c *Chunk, max int) int {
	n := 0
	for n < max {
		rec, ok := g.Next()
		if !ok {
			break
		}
		c.Append(rec)
		n++
	}
	return n
}

// Next returns the next record, or false once the generator is done.
func (g *Gen) Next() (Record, bool) {
	if g.left <= 0 {
		return Record{}, false
	}
	g.left--
	s, rng := &g.spec, g.rng
	if s.HotFrac > 0 && rng.Float64() < s.HotFrac {
		l := rng.intn(&g.hotLine)
		gap := 0
		if s.MeanGap > 0 {
			gap = rng.intn(&g.gap)
		}
		return Record{
			PC:     0xA00000 + uint64(l&7)*4,
			Addr:   g.hotBase + uint64(l)*mem.LineSize,
			NonMem: uint16(gap),
			Store:  rng.Float64() < s.StoreFrac,
		}, true
	}
	pick := rng.intn(&g.pick)
	var act Actor
	for _, wa := range s.Actors {
		if pick < wa.Weight {
			act = wa.Actor
			break
		}
		pick -= wa.Weight
	}
	pc, addr, store := act.Next(rng)
	if !store && s.StoreFrac > 0 && rng.Float64() < s.StoreFrac {
		store = true
	}
	gap := 0
	if s.MeanGap > 0 {
		// Geometric-ish gap with the requested mean, capped to fit
		// the record field.
		gap = rng.intn(&g.gap)
	}
	return Record{PC: pc, Addr: addr, NonMem: uint16(gap), Store: store}, true
}

// pageBase returns a page-aligned address inside an actor's private region.
func pageBase(region uint64, page uint64) uint64 {
	return region + page*mem.PageSize
}

// StreamActor models a sequential stream: consecutive cache lines in one
// direction across many pages, occasionally restarting at a fresh region.
// This is the libquantum-style pattern where aggressive region prefetchers
// (Bingo) achieve the best timeliness.
type StreamActor struct {
	PC   uint64
	Base uint64
	Dir  int // +1 or -1 lines
	Span int // lines before jumping to a new region
	// SkipProb makes the stream sparse: with this probability a step jumps
	// 2-4 lines instead of 1 (real streams have holes; footprint learners
	// overpredict them). Defaults to 0.08; negative disables.
	SkipProb float64
	nexLine  uint64
	left     int
	region   int
}

// Next implements Actor.
func (a *StreamActor) Next(rng *Rand) (uint64, uint64, bool) {
	if a.left <= 0 {
		a.region++
		a.nexLine = mem.LineAddr(a.Base + uint64(a.region)*(1<<21)) // fresh 2MB region
		a.left = a.Span
		if a.Span <= 0 {
			a.left = 1 << 30
		}
	}
	skip := a.SkipProb
	if skip == 0 {
		skip = 0.08
	}
	step := int64(1)
	if skip > 0 && rng.Float64() < skip {
		step = int64(2 + rng.Intn(3))
	}
	line := a.nexLine
	if a.Dir < 0 {
		a.nexLine -= uint64(step)
	} else {
		a.nexLine += uint64(step)
	}
	a.left -= int(step)
	return a.PC, mem.LineToByte(line), false
}

// StrideActor models a per-PC constant stride over a large array, the
// pattern PC-based stride prefetchers capture.
type StrideActor struct {
	PC     uint64
	Base   uint64
	Stride int // stride in cache lines
	Lines  int // array length in lines before wrap
	pos    int
}

// Next implements Actor.
func (a *StrideActor) Next(rng *Rand) (uint64, uint64, bool) {
	line := mem.LineAddr(a.Base) + uint64(a.pos)
	a.pos += a.Stride
	if a.Lines > 0 && a.pos >= a.Lines {
		a.pos = 0
	}
	return a.PC, mem.LineToByte(line), false
}

// DeltaChainActor models a repeating in-page delta sequence: on each new
// page the actor touches the page's first line then follows the Chain of
// line deltas, then moves to the next page. With Chain=[23] this reproduces
// the 459.GemsFDTD access structure from the paper's case study (§6.5): one
// access to the first line of a page, then exactly one more access 23 lines
// ahead. SPP- and Pythia-style delta learners capture this; region
// prefetchers overshoot.
type DeltaChainActor struct {
	PC    uint64 // PC of the page-leading access
	PCs   []uint64
	Base  uint64
	Chain []int
	// Parallel is the number of pages walked concurrently (round-robin);
	// it sets the temporal spacing between same-page accesses and thus
	// prefetch timeliness. Default 8.
	Parallel int
	// Jitter randomizes the page-leading offset in [0, Jitter]; it decouples
	// the chain from fixed 2KB-region positions (delta learners are
	// unaffected; region-footprint learners see varying patterns).
	Jitter int

	walkers []deltaWalker
	cur     int
	nextPg  uint64
}

type deltaWalker struct {
	step int
	line uint64
}

// Next implements Actor.
func (a *DeltaChainActor) Next(rng *Rand) (uint64, uint64, bool) {
	if a.walkers == nil {
		p := a.Parallel
		if p <= 0 {
			p = 8
		}
		a.walkers = make([]deltaWalker, p)
	}
	w := &a.walkers[a.cur]
	a.cur = (a.cur + 1) % len(a.walkers)
	if w.step == 0 {
		a.nextPg++
		w.line = mem.LineAddr(pageBase(a.Base, a.nextPg))
		if a.Jitter > 0 {
			w.line += uint64(rng.Intn(a.Jitter + 1))
		}
		w.step = 1
		return a.PC, mem.LineToByte(w.line), false
	}
	d := a.Chain[w.step-1]
	w.line += uint64(int64(d))
	pc := a.PC
	if len(a.PCs) >= w.step {
		pc = a.PCs[w.step-1]
	}
	line := w.line
	w.step++
	if w.step > len(a.Chain) {
		w.step = 0
	}
	return pc, mem.LineToByte(line), false
}

// RegionActor models SMS/Bingo-style spatial footprints: each program phase
// (keyed by trigger PC) touches a recurring bit-pattern of lines inside a
// 2KB/4KB region. When a new region is entered, the same footprint repeats,
// so prefetchers that key on (PC, first offset) predict the whole region.
type RegionActor struct {
	TriggerPC uint64
	Base      uint64
	Footprint []int // in-page line offsets accessed, in order
	Regions   int   // distinct regions before reuse
	// Parallel is the number of regions visited concurrently; like real
	// spatial workloads, a region's footprint unfolds over time while
	// other regions are active. Default 8.
	Parallel int
	// Noise is the probability that a region instance truncates its
	// footprint to a random prefix (real spatial footprints recur only
	// approximately; truncation hurts whole-footprint replayers more than
	// delta-sequence learners, as in the paper's SPP-vs-Bingo contrast).
	// Defaults to 0.4; set negative for none.
	Noise float64
	// Drift mutates one footprint element every Drift region generations,
	// modelling slow phase change; footprint-history prefetchers keep
	// predicting the stale pattern. Defaults to 48; set negative for none.
	Drift int

	walkers []regionWalker
	cur     int
	nextRg  int
}

type regionWalker struct {
	pos    int
	region int
	limit  int
}

// Next implements Actor.
func (a *RegionActor) Next(rng *Rand) (uint64, uint64, bool) {
	if a.walkers == nil {
		p := a.Parallel
		if p <= 0 {
			p = 8
		}
		a.walkers = make([]regionWalker, p)
		for i := range a.walkers {
			a.walkers[i] = regionWalker{pos: len(a.Footprint)} // force fresh region
		}
	}
	noise := a.Noise
	if noise == 0 {
		noise = 0.4
	}
	drift := a.Drift
	if drift == 0 {
		drift = 48
	}
	w := &a.walkers[a.cur]
	a.cur = (a.cur + 1) % len(a.walkers)
	if w.limit == 0 || w.pos >= w.limit {
		w.pos = 0
		a.nextRg++
		w.region = a.nextRg
		if a.Regions > 0 {
			w.region = a.nextRg % a.Regions
		}
		w.limit = len(a.Footprint)
		if noise > 0 && len(a.Footprint) > 2 && rng.Float64() < noise {
			w.limit = 2 + rng.Intn(len(a.Footprint)-2)
		}
		if drift > 0 && a.nextRg%drift == 0 && len(a.Footprint) > 2 {
			// Nudge one interior element to a fresh offset strictly between
			// its neighbors: footprints evolve but stay ordered, so delta
			// learners can re-learn while footprint replayers hold stale
			// patterns.
			i := 1 + rng.Intn(len(a.Footprint)-2)
			lo, hi := a.Footprint[i-1]+1, a.Footprint[i+1]-1
			if hi >= lo {
				a.Footprint[i] = lo + rng.Intn(hi-lo+1)
			}
		}
	}
	off := a.Footprint[w.pos]
	pc := a.TriggerPC + uint64(w.pos)*4
	addr := pageBase(a.Base, uint64(w.region)) + uint64(off)*mem.LineSize
	w.pos++
	return pc, addr, false
}

// ChaseActor models dependent pointer chasing over a random permutation of
// lines: the canonical irregular pattern no spatial prefetcher covers
// (mcf/canneal style).
type ChaseActor struct {
	PC    uint64
	Base  uint64
	Lines int
	perm  []int32
	cur   int
}

// Next implements Actor.
func (a *ChaseActor) Next(rng *Rand) (uint64, uint64, bool) {
	if a.perm == nil {
		n := a.Lines
		if n <= 0 {
			n = 1 << 16
		}
		a.perm = make([]int32, n)
		for i := range a.perm {
			a.perm[i] = int32(i)
		}
		// rng.Shuffle's swaps, made in place.
		for i := n - 1; i > 0; i-- {
			j := rng.shuffleIndex(i)
			a.perm[i], a.perm[j] = a.perm[j], a.perm[i]
		}
	}
	line := mem.LineAddr(a.Base) + uint64(a.perm[a.cur])
	a.cur = int(a.perm[a.cur])
	return a.PC, mem.LineToByte(line), false
}

// GraphActor models Ligra-style frontier processing: a sequential scan over
// an edge-offset array interleaved with short bursty runs at random vertex
// neighborhoods. The scan is prefetchable; the neighbor bursts are partially
// prefetchable (short in-page runs); the mix is highly memory intensive, so
// wasted prefetch bandwidth is costly — the property Fig. 14 builds on.
type GraphActor struct {
	ScanPC   uint64
	VisitPC  uint64
	Base     uint64
	VertBase uint64
	Vertices int
	RunLen   int // lines per neighborhood burst
	// ScanFrac is the probability a non-burst step advances the sequential
	// scan instead of opening a new neighborhood (default 0.5). Graph
	// kernels interleave large sequential sweeps (frontier, offsets) with
	// random vertex-data bursts.
	ScanFrac float64
	scanLine uint64
	burst    int
	burstAt  uint64
}

// Next implements Actor.
func (a *GraphActor) Next(rng *Rand) (uint64, uint64, bool) {
	if a.burst > 0 {
		a.burst--
		a.burstAt++
		return a.VisitPC, mem.LineToByte(a.burstAt), false
	}
	scanFrac := a.ScanFrac
	if scanFrac == 0 {
		scanFrac = 0.5
	}
	if rng.Float64() < scanFrac {
		if a.scanLine == 0 {
			a.scanLine = mem.LineAddr(a.Base)
		}
		a.scanLine++
		return a.ScanPC, mem.LineToByte(a.scanLine), false
	}
	v := rng.Intn(max(a.Vertices, 1))
	a.burstAt = mem.LineAddr(a.VertBase) + uint64(v)*8
	// Burst length varies with (synthetic) vertex degree, so footprint
	// learners overshoot on short neighborhoods.
	a.burst = rng.Intn(2*a.RunLen+1) - 1
	if a.burst < 0 {
		a.burst = 0
	}
	return a.VisitPC, mem.LineToByte(a.burstAt), false
}

// ZipfActor models server/cloud workloads: a large footprint accessed with a
// skewed (approximately Zipfian) reuse distribution and little spatial
// structure.
type ZipfActor struct {
	PC    uint64
	Base  uint64
	Lines int
	Theta float64 // skew; higher = more concentrated
	exp   float64 // the power-law exponent, from Theta on the first Next
}

// Next implements Actor.
func (a *ZipfActor) Next(rng *Rand) (uint64, uint64, bool) {
	n := a.Lines
	if n <= 0 {
		n = 1 << 18
	}
	if a.exp == 0 {
		theta := a.Theta
		if theta <= 0 {
			theta = 0.99
		}
		a.exp = 1 / (1 - theta + 1e-9)
	}
	// Approximate Zipf via a power-law transform of a uniform draw; exact
	// Zipf normalization is unnecessary for traffic shaping.
	u := rng.Float64()
	idx := int(float64(n) * math.Pow(u, a.exp))
	if idx >= n {
		idx = n - 1
	}
	line := mem.LineAddr(a.Base) + uint64(idx)
	pc := a.PC + uint64(idx&7)*4
	return pc, mem.LineToByte(line), false
}

// TemporalActor replays a fixed, irregular address sequence over and over:
// temporally correlated but spatially unpredictable (what temporal
// prefetchers capture and spatial ones do not).
type TemporalActor struct {
	PC    uint64
	Base  uint64
	Len   int
	seq   []uint64
	pos   int
	built bool
}

// Next implements Actor.
func (a *TemporalActor) Next(rng *Rand) (uint64, uint64, bool) {
	if !a.built {
		n := a.Len
		if n <= 0 {
			n = 4096
		}
		a.seq = make([]uint64, n)
		for i := range a.seq {
			a.seq[i] = mem.LineAddr(a.Base) + uint64(rng.Intn(1<<18))
		}
		a.built = true
	}
	line := a.seq[a.pos]
	a.pos = (a.pos + 1) % len(a.seq)
	return a.PC, mem.LineToByte(line), false
}
