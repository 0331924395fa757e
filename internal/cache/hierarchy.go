package cache

import (
	"fmt"
	"math"
	"strconv"

	"pythia/internal/dram"
	"pythia/internal/mem"
	"pythia/internal/prefetch"
	"pythia/internal/xlat"
)

// Config describes the hierarchy, defaulting to the paper's Table 5 system.
type Config struct {
	Cores int

	L1SizeKB, L1Ways int
	L2SizeKB, L2Ways int
	// LLCSizeKBPerCore scales the shared LLC with core count (2MB/core).
	LLCSizeKBPerCore int
	LLCWays          int

	L1Latency, L2Latency, LLCLatency int64

	// MSHRs bounds outstanding demand misses per core at the L2/LLC
	// boundary.
	MSHRs int
	// PrefetchBudget bounds outstanding prefetch misses per core (the
	// prefetch queue + LLC MSHR share); prefetches beyond it are dropped,
	// as in hardware.
	PrefetchBudget int

	// Translate enables virtual-to-physical translation per core: traces
	// carry virtual addresses and the hierarchy operates on scattered
	// physical frames (ablation; see internal/xlat).
	Translate bool

	// LLCPolicy selects the shared-LLC replacement policy: "ship"
	// (default, Table 5), "drrip", or "lru".
	LLCPolicy string

	DRAM dram.Config
}

// DefaultConfig returns the Table 5 configuration for n cores with the
// paper's per-core-count channel scaling (1C–2C: 1 channel, 4C–6C: 2,
// 8C–12C: 4).
func DefaultConfig(cores int) Config {
	channels := 1
	switch {
	case cores >= 8:
		channels = 4
	case cores >= 4:
		channels = 2
	}
	return Config{
		Cores:            cores,
		L1SizeKB:         32,
		L1Ways:           8,
		L2SizeKB:         256,
		L2Ways:           8,
		LLCSizeKBPerCore: 2048,
		LLCWays:          16,
		L1Latency:        4,
		L2Latency:        14,
		LLCLatency:       34,
		MSHRs:            32,
		PrefetchBudget:   64,
		DRAM:             dram.DDR4_2400(channels),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: cores must be positive, got %d", c.Cores)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache: MSHRs must be positive, got %d", c.MSHRs)
	}
	if c.PrefetchBudget <= 0 {
		return fmt.Errorf("cache: prefetch budget must be positive, got %d", c.PrefetchBudget)
	}
	for _, g := range []struct {
		name         string
		sizeKB, ways int
	}{
		{"L1", c.L1SizeKB, c.L1Ways},
		{"L2", c.L2SizeKB, c.L2Ways},
		{"LLC", c.LLCSizeKBPerCore * c.Cores, c.LLCWays},
	} {
		if _, err := geometry(g.sizeKB, g.ways); err != nil {
			return fmt.Errorf("cache: %s: %w", g.name, err)
		}
	}
	switch c.LLCPolicy {
	case "", "ship", "drrip", "lru":
	default:
		return fmt.Errorf("cache: unknown LLC policy %q", c.LLCPolicy)
	}
	return c.DRAM.Validate()
}

// Key renders the whole configuration, DRAM included, byte for byte as
// fmt's %+v does ({Cores:1 L1SizeKB:32 ... DRAM:{Channels:1 ...}}), but
// field by field instead of by reflection. It is part of every run's
// identity: the harness's memo key and the fingerprint of every stored
// result. Entries already on disk keep hitting only while the bytes stay
// those of %+v, which TestConfigKeyMatchesSprintf pins; a field added to
// Config or dram.Config must be added here too, in declaration order.
func (c Config) Key() string {
	d := c.DRAM
	b := make([]byte, 0, 384)
	b = appendField(b, "{Cores:", c.Cores)
	b = appendField(b, " L1SizeKB:", c.L1SizeKB)
	b = appendField(b, " L1Ways:", c.L1Ways)
	b = appendField(b, " L2SizeKB:", c.L2SizeKB)
	b = appendField(b, " L2Ways:", c.L2Ways)
	b = appendField(b, " LLCSizeKBPerCore:", c.LLCSizeKBPerCore)
	b = appendField(b, " LLCWays:", c.LLCWays)
	b = appendField(b, " L1Latency:", c.L1Latency)
	b = appendField(b, " L2Latency:", c.L2Latency)
	b = appendField(b, " LLCLatency:", c.LLCLatency)
	b = appendField(b, " MSHRs:", c.MSHRs)
	b = appendField(b, " PrefetchBudget:", c.PrefetchBudget)
	b = strconv.AppendBool(append(b, " Translate:"...), c.Translate)
	b = append(append(b, " LLCPolicy:"...), c.LLCPolicy...)
	b = appendField(b, " DRAM:{Channels:", d.Channels)
	b = appendField(b, " RanksPerChannel:", d.RanksPerChannel)
	b = appendField(b, " BanksPerRank:", d.BanksPerRank)
	b = appendField(b, " MTPS:", d.MTPS)
	b = appendField(b, " BusBytes:", d.BusBytes)
	b = appendField(b, " RowBytes:", d.RowBytes)
	b = appendField(b, " CoreMHz:", d.CoreMHz)
	b = appendFloat(b, " TRCDns:", d.TRCDns)
	b = appendFloat(b, " TRPns:", d.TRPns)
	b = appendFloat(b, " TCASns:", d.TCASns)
	b = appendFloat(b, " TREFIns:", d.TREFIns)
	b = appendFloat(b, " TRFCns:", d.TRFCns)
	return string(append(b, "}}"...))
}

// appendField appends one integer field of Config.Key.
func appendField[T int | int64](b []byte, name string, v T) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// appendFloat appends one float64 field of Config.Key in %v's form,
// which is strconv's shortest 'g' form.
func appendFloat(b []byte, name string, v float64) []byte {
	return strconv.AppendFloat(append(b, name...), v, 'g', -1, 64)
}

// CoreStats accumulates per-core memory-system statistics used by the
// harness to compute the paper's coverage/overprediction metrics
// (Appendix A.6).
type CoreStats struct {
	// Demand traffic.
	Accesses, Loads   int64
	L1Misses          int64
	L2Misses          int64
	LLCLoadMisses     int64 // demand loads that missed the LLC (incl. merges into in-flight prefetches)
	LLCDemandAccesses int64

	// DRAMReads counts LLC-to-memory reads issued on behalf of this core
	// (demand + prefetch): the paper's "LLC read miss".
	DRAMReads int64

	// Prefetcher activity.
	PfIssued   int64 // candidates accepted for issue
	PfDropped  int64 // dropped: already cached/outstanding or MSHRs full
	PfToDRAM   int64 // prefetches that read main memory
	PfFills    int64 // prefetch fills into L2/LLC
	PfUseful   int64 // prefetched lines later demanded (incl. late)
	PfLate     int64 // demand merged with an in-flight prefetch
	Writebacks int64
	PfLLCHits  int64
}

// Accuracy returns useful/issued in [0,1].
func (s CoreStats) Accuracy() float64 {
	if s.PfIssued == 0 {
		return 0
	}
	return float64(s.PfUseful) / float64(s.PfIssued)
}

type missEntry struct {
	line     uint64
	complete int64
	prefetch bool
	pc       uint64
	store    bool
	demanded bool // a demand merged while in flight
}

// heapNode pairs an entry with a copy of its completion cycle. complete is
// immutable once an entry is in flight (merges only flip demanded/store),
// so caching it in the node keeps the sift comparisons on contiguous memory
// instead of chasing a pointer per compare.
type heapNode struct {
	complete int64
	e        *missEntry
}

// missHeap is a binary min-heap on complete. The sift loops replicate
// container/heap's algorithm exactly — same comparisons, same swap choices
// — so the pop order of equal-complete entries (which feeds replacement
// state through fill order) is unchanged from when this was driven through
// heap.Push/heap.Pop; the concrete methods just drop the interface
// dispatch and per-op allocation of the boxed API.
// TestMissHeapMatchesContainerHeap pins that order.
type missHeap []heapNode

func (h *missHeap) pushEntry(e *missEntry) {
	s := append(*h, heapNode{e.complete, e})
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[j].complete >= s[i].complete {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

// popEntry removes the earliest entry. The sift picks the smaller child
// without a branch: the popped node, parked at s[n] past the heap, reads
// as the latest possible completion while it sifts, so a last left child
// without a right sibling is picked as container/heap picks it, and the
// pick is one compare and a SETcc. On equal children it keeps the left
// one, as container/heap does.
func (h *missHeap) popEntry() *missEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	e := s[n].e
	s[n].complete = math.MaxInt64
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		right := 0
		if s[j+1].complete < s[j].complete {
			right = 1
		}
		j += right
		if s[j].complete >= s[i].complete {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	s[n] = heapNode{}
	*h = s[:n]
	return e
}

type corePipes struct {
	// Ordered so the per-access working set (L1 pointer, pending peek,
	// mmu/l1pf nil checks, leading stats counters) packs into the first
	// cache lines of the struct.
	l1, l2      *Cache
	pending     missHeap
	mmu         *xlat.MMU
	l1pf        prefetch.Prefetcher
	stats       CoreStats
	l2pf        prefetch.Prefetcher
	outstanding *missTable
	free        []*missEntry // retired entries recycled by newEntry
	demandOut   int          // outstanding demand misses
	pfOut       int          // outstanding prefetch misses
}

// newEntry takes an entry from the free pool, or allocates one. Occupancy
// is bounded by MSHRs+PrefetchBudget, so the pool stays small and steady
// state allocates nothing.
func (cp *corePipes) newEntry() *missEntry {
	if n := len(cp.free); n > 0 {
		e := cp.free[n-1]
		cp.free = cp.free[:n-1]
		return e
	}
	return &missEntry{}
}

func (cp *corePipes) recycle(e *missEntry) { cp.free = append(cp.free, e) }

// Hierarchy is the full memory system below the cores: per-core L1D and L2,
// a shared LLC, prefetchers at the L2 (and optionally L1), and DRAM.
type Hierarchy struct {
	cfg   Config
	cores []corePipes
	llc   *Cache
	dram  *dram.Controller
}

// NewHierarchy builds the memory system. Prefetchers are attached with
// AttachPrefetcher afterwards; all cores start with no prefetching.
func NewHierarchy(cfg Config) (*Hierarchy, error) { return Recycle(cfg, nil) }

// Recycle builds the memory system for cfg exactly as NewHierarchy does,
// but takes the large per-line arrays (tags, LRU order words, the SHiP
// and DRRIP RRPV words, SHiP's flag masks, signatures and SHCT, each
// core's outstanding-miss table) from spare
// wherever an array of the same size is there, clearing each before use.
// It takes each core's miss heap and entry pool as they are. A small
// simulation otherwise spends a sizeable share of its time zeroing
// freshly allocated pages.
// spare may be nil. Its caches are detached either way: spare must not be
// used again, and any later access through it panics instead of reading
// another run's state.
func Recycle(cfg Config, spare *Hierarchy) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spare == nil {
		spare = &Hierarchy{}
	}
	llcRepl := recycleSHiP
	switch cfg.LLCPolicy {
	case "drrip":
		llcRepl = recycleDRRIP
	case "lru":
		llcRepl = recycleLRU
	}
	h := &Hierarchy{
		cfg:   cfg,
		cores: make([]corePipes, cfg.Cores),
		llc:   recycleCache("LLC", cfg.LLCSizeKBPerCore*cfg.Cores, cfg.LLCWays, llcRepl, spare.llc),
		dram:  dram.NewController(cfg.DRAM),
	}
	for i := range h.cores {
		var old corePipes
		if i < len(spare.cores) {
			old = spare.cores[i]
		}
		h.cores[i] = corePipes{
			l1:          recycleCache(fmt.Sprintf("L1D%d", i), cfg.L1SizeKB, cfg.L1Ways, recycleLRU, old.l1),
			l2:          recycleCache(fmt.Sprintf("L2_%d", i), cfg.L2SizeKB, cfg.L2Ways, recycleLRU, old.l2),
			l2pf:        prefetch.None{},
			outstanding: newMissTable(cfg.MSHRs+cfg.PrefetchBudget, old.outstanding),
			pending:     old.pending,
			free:        old.free,
		}
		if cfg.Translate {
			h.cores[i].mmu = xlat.NewMMU(uint64(i) + 1)
		}
	}
	spare.cores, spare.llc = nil, nil
	return h, nil
}

// Spare moves h's per-line arrays and miss bookkeeping into a hierarchy
// that holds nothing else, for a later Recycle: unlike h, it keeps no
// prefetcher, DRAM controller or MMU alive while it waits. h's caches are
// detached, so h must not be used again, and any later access through it
// panics.
func (h *Hierarchy) Spare() *Hierarchy {
	s := &Hierarchy{cfg: h.cfg, llc: h.llc, cores: make([]corePipes, len(h.cores))}
	for i, cp := range h.cores {
		// A canceled run's misses still in flight are dropped: the heap is
		// emptied here and Recycle clears the miss table.
		s.cores[i] = corePipes{l1: cp.l1, l2: cp.l2, outstanding: cp.outstanding, pending: cp.pending[:0], free: cp.free}
	}
	h.cores, h.llc = nil, nil
	return s
}

// Fits reports whether Recycle(cfg, h) would take every array of h: the
// two hierarchies agree in core count, cache geometry and LLC policy.
func (h *Hierarchy) Fits(cfg Config) bool {
	a, b := h.cfg, cfg
	return a.Cores == b.Cores &&
		a.L1SizeKB == b.L1SizeKB && a.L1Ways == b.L1Ways &&
		a.L2SizeKB == b.L2SizeKB && a.L2Ways == b.L2Ways &&
		a.LLCSizeKBPerCore == b.LLCSizeKBPerCore && a.LLCWays == b.LLCWays &&
		llcPolicy(a.LLCPolicy) == llcPolicy(b.LLCPolicy)
}

// llcPolicy names the LLC policy a Config selects ("" means SHiP).
func llcPolicy(p string) string {
	if p == "" {
		return "ship"
	}
	return p
}

// AttachPrefetcher sets the L2 prefetcher of a core.
func (h *Hierarchy) AttachPrefetcher(core int, p prefetch.Prefetcher) {
	h.cores[core].l2pf = p
}

// AttachL1Prefetcher sets an optional L1 prefetcher (multi-level schemes of
// Fig. 8d). Its candidates fill the L1 as well as lower levels.
func (h *Hierarchy) AttachL1Prefetcher(core int, p prefetch.Prefetcher) {
	h.cores[core].l1pf = p
}

// BandwidthUtil implements prefetch.System using the DRAM bus monitor.
func (h *Hierarchy) BandwidthUtil() float64 { return h.dram.Util() }

// DRAM returns the memory controller (for bandwidth buckets and stats).
func (h *Hierarchy) DRAM() *dram.Controller { return h.dram }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// CoreStats returns a copy of a core's statistics.
func (h *Hierarchy) CoreStats(core int) CoreStats { return h.cores[core].stats }

// ResetStats clears all statistics at the warmup/measurement boundary.
// Cache and predictor state is preserved.
func (h *Hierarchy) ResetStats() {
	for i := range h.cores {
		h.cores[i].stats = CoreStats{}
		h.cores[i].l1.ResetStats()
		h.cores[i].l2.ResetStats()
	}
	h.llc.ResetStats()
	h.dram.ResetStats()
}

// drain retires all in-flight misses that completed by cycle: prefetch
// entries fill L2+LLC and notify the prefetcher; demand entries fill the
// whole path.
func (h *Hierarchy) drain(core int, cycle int64) {
	cp := &h.cores[core]
	for len(cp.pending) > 0 && cp.pending[0].complete <= cycle {
		e := cp.pending.popEntry()
		h.remove(core, e)
		h.finishMiss(core, e)
		cp.recycle(e)
	}
}

// remove drops an entry from the outstanding bookkeeping.
func (h *Hierarchy) remove(core int, e *missEntry) {
	cp := &h.cores[core]
	cp.outstanding.del(e.line)
	if e.prefetch {
		cp.pfOut--
	} else {
		cp.demandOut--
	}
}

func (h *Hierarchy) finishMiss(core int, e *missEntry) {
	cp := &h.cores[core]
	pfBit := e.prefetch && !e.demanded
	if ev := h.llc.Fill(e.line, e.pc, pfBit, false); ev.Valid && ev.Dirty {
		cp.stats.Writebacks++
		h.dram.Write(ev.Line, e.complete)
	}
	h.fillL2(core, e.line, e.pc, pfBit, e.store)
	if !e.prefetch {
		cp.l1.Fill(e.line, e.pc, false, e.store)
	}
	if e.prefetch {
		cp.stats.PfFills++
		cp.l2pf.Fill(e.line)
		if cp.l1pf != nil {
			cp.l1pf.Fill(e.line)
		}
	}
}

// fillL2 inserts into L2, writing back dirty victims into the LLC.
func (h *Hierarchy) fillL2(core int, lineAddr, pc uint64, pfBit, dirty bool) {
	cp := &h.cores[core]
	if ev := cp.l2.Fill(lineAddr, pc, pfBit, dirty); ev.Valid && ev.Dirty {
		// Dirty L2 victim: update the LLC copy (or allocate).
		h.llc.Fill(ev.Line, pc, false, true)
	}
}

// Access performs a demand access for a core and returns the completion
// cycle of the data (loads); stores return promptly but still generate
// traffic.
func (h *Hierarchy) Access(core int, pc, addr uint64, store bool, cycle int64) int64 {
	cp := &h.cores[core]
	if len(cp.pending) > 0 && cp.pending[0].complete <= cycle {
		h.drain(core, cycle)
	}
	if cp.mmu != nil {
		addr = cp.mmu.Translate(addr)
	}
	lineAddr := mem.LineAddr(addr)
	cp.stats.Accesses++
	if !store {
		cp.stats.Loads++
	}

	// Optional L1 prefetcher trains on every L1 access. The L1 probe is
	// cache.Access hand-inlined (same package): one call boundary per
	// record matters at this loop's rate, and the L1 always runs the
	// devirtualized LRU. No L1 line carries the prefetch bit (L1 fills
	// never set it), so a hit has no prefetch flag to report or clear.
	// Behaviour is identical to cp.l1.Access.
	l1 := cp.l1
	l1Hit := false
	{
		set := int(lineAddr & uint64(l1.sets-1))
		base := set * l1.ways
		tags := l1.tags[base : base+l1.ways]
		want := lineAddr | tagValid
		for w, t := range tags {
			if t&tagKey == want {
				l1.Hits++
				l1.lruFast.touch(set, w)
				if store {
					tags[w] = t | tagDirty
				}
				l1Hit = true
				break
			}
		}
		if !l1Hit {
			l1.Misses++
		}
	}
	if cp.l1pf != nil {
		for _, cand := range cp.l1pf.Train(prefetch.Access{
			PC: pc, Line: lineAddr, Cycle: cycle, Hit: l1Hit, Store: store,
		}) {
			h.issuePrefetch(core, pc, cand, cycle)
		}
	}
	if l1Hit {
		return cycle + h.cfg.L1Latency
	}
	cp.stats.L1Misses++
	arr := cycle + h.cfg.L1Latency

	// The L2 prefetcher observes every L1 miss (paper methodology §5.2).
	// The outstanding entry (if any) doubles as demandLookup's merge target,
	// saving a second table probe of the same key; likewise the L2 demand
	// access happens here, once, and its result feeds both the training
	// hit signal and demandLookup. A line with an in-flight miss cannot be
	// L2-resident (it missed L2 to go outstanding, and nothing fills it
	// until the miss completes), so skipping the L2 access on a merge
	// leaves L2 stats and replacement state exactly as the
	// probe-then-access sequence did.
	inFlight := cp.outstanding.get(lineAddr)
	var l2Hit, l2WasPf bool
	if inFlight == nil {
		l2Hit, l2WasPf = cp.l2.Access(lineAddr, pc, store)
	}
	cands := cp.l2pf.Train(prefetch.Access{
		PC: pc, Line: lineAddr, Cycle: cycle, Hit: l2Hit || inFlight != nil, Store: store,
	})

	done := h.demandLookup(core, pc, lineAddr, store, arr, inFlight, l2Hit, l2WasPf)

	for _, cand := range cands {
		h.issuePrefetch(core, pc, cand, cycle)
	}
	return done
}

// demandLookup resolves a demand L1 miss through L2, LLC and DRAM.
// inFlight is the line's outstanding entry, nil if none; l2Hit/l2WasPf are
// the result of the single L2 demand access the caller already performed
// (meaningful only when inFlight is nil).
func (h *Hierarchy) demandLookup(core int, pc, lineAddr uint64, store bool, arr int64, inFlight *missEntry, l2Hit, l2WasPf bool) int64 {
	cp := &h.cores[core]

	// Merge with an in-flight miss.
	if e := inFlight; e != nil {
		if e.prefetch && !e.demanded {
			cp.stats.PfLate++
			cp.stats.PfUseful++
		}
		e.demanded = true
		if store {
			e.store = true
		}
		if !store {
			cp.stats.LLCLoadMisses++ // data still comes from DRAM
		}
		if e.complete > arr {
			return e.complete
		}
		return arr
	}

	if l2Hit {
		if l2WasPf {
			cp.stats.PfUseful++
		}
		cp.l1.Fill(lineAddr, pc, false, store)
		return arr + h.cfg.L2Latency
	}
	cp.stats.L2Misses++
	arrLLC := arr + h.cfg.L2Latency
	cp.stats.LLCDemandAccesses++

	if hit, wasPf := h.llc.Access(lineAddr, pc, store); hit {
		if wasPf {
			cp.stats.PfUseful++
		}
		h.fillL2(core, lineAddr, pc, false, false)
		cp.l1.Fill(lineAddr, pc, false, store)
		return arrLLC + h.cfg.LLCLatency
	}
	if !store {
		cp.stats.LLCLoadMisses++
	}

	// Miss to DRAM: take a demand MSHR, stalling until one frees if needed.
	issueAt := arrLLC + h.cfg.LLCLatency
	for cp.demandOut >= h.cfg.MSHRs {
		e := cp.pending.popEntry()
		h.remove(core, e)
		h.finishMiss(core, e)
		if e.complete > issueAt {
			issueAt = e.complete
		}
		cp.recycle(e)
	}
	cp.stats.DRAMReads++
	done := h.dram.Read(lineAddr, issueAt)
	e := cp.newEntry()
	*e = missEntry{line: lineAddr, complete: done, pc: pc, store: store}
	cp.outstanding.put(lineAddr, e)
	cp.demandOut++
	cp.pending.pushEntry(e)
	return done
}

// issuePrefetch injects one prefetch candidate. Candidates of the L1
// prefetcher (multi-level schemes) would also fill the L1 on completion;
// for simplicity both kinds fill L2+LLC and L1 fills are approximated by
// L2 fills, which the 4-cycle L1 latency makes near-equivalent.
func (h *Hierarchy) issuePrefetch(core int, pc, lineAddr uint64, cycle int64) {
	cp := &h.cores[core]
	if cp.outstanding.get(lineAddr) != nil {
		cp.stats.PfDropped++
		return
	}
	if _, hit := cp.l2.Lookup(lineAddr); hit {
		cp.stats.PfDropped++
		return
	}
	cp.stats.PfIssued++

	if hit, _ := h.llc.Access(lineAddr, pc, false); hit {
		// Promote from LLC into L2; this is a cheap, always-timely fill.
		cp.stats.PfLLCHits++
		cp.stats.PfFills++
		h.fillL2(core, lineAddr, pc, true, false)
		cp.l2pf.Fill(lineAddr)
		if cp.l1pf != nil {
			cp.l1pf.Fill(lineAddr)
		}
		return
	}

	// Prefetches do not stall for resources: drop when the budget is full
	// (hardware behavior).
	if cp.pfOut >= h.cfg.PrefetchBudget {
		cp.stats.PfIssued--
		cp.stats.PfDropped++
		return
	}
	cp.stats.PfToDRAM++
	cp.stats.DRAMReads++
	issueAt := cycle + h.cfg.L2Latency + h.cfg.LLCLatency
	done := h.dram.Read(lineAddr, issueAt)
	e := cp.newEntry()
	*e = missEntry{line: lineAddr, complete: done, prefetch: true, pc: pc}
	cp.outstanding.put(lineAddr, e)
	cp.pfOut++
	cp.pending.pushEntry(e)
}

// Flush drains every outstanding miss (used at end of simulation so fills
// and prefetcher notifications are complete).
func (h *Hierarchy) Flush() {
	for i := range h.cores {
		h.drain(i, 1<<62)
	}
}
