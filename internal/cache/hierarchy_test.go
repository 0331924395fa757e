package cache

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pythia/internal/prefetch"
)

func newTestHierarchy(t *testing.T, cores int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(DefaultConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Cores = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("0 cores should fail")
	}
	cfg = DefaultConfig(1)
	cfg.MSHRs = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("0 MSHRs should fail")
	}
	cfg = DefaultConfig(1)
	cfg.PrefetchBudget = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("0 prefetch budget should fail")
	}
}

func TestL1HitLatency(t *testing.T) {
	h := newTestHierarchy(t, 1)
	addr := uint64(1 << 20)
	done := h.Access(0, 1, addr, false, 0) // cold miss, long latency
	if done < 100 {
		t.Errorf("cold miss completed in %d cycles", done)
	}
	// A re-access after completion must be an L1 hit.
	done2 := h.Access(0, 1, addr, false, done+1)
	if lat := done2 - (done + 1); lat != h.Config().L1Latency {
		t.Errorf("L1 hit latency = %d, want %d", lat, h.Config().L1Latency)
	}
	if s := h.CoreStats(0); s.L1Misses != 1 || s.Accesses != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestMissMerging(t *testing.T) {
	h := newTestHierarchy(t, 1)
	addr := uint64(1 << 21)
	done1 := h.Access(0, 1, addr, false, 0)
	// Second access to the same line while in flight merges: it must not
	// create a second DRAM read and completes no later than the first.
	done2 := h.Access(0, 1, addr+8, false, 5)
	if done2 > done1 {
		t.Errorf("merged access completes at %d, after the original %d", done2, done1)
	}
	if s := h.CoreStats(0); s.DRAMReads != 1 {
		t.Errorf("DRAM reads = %d, want 1 (merged)", s.DRAMReads)
	}
}

// trainOnce is a prefetcher that emits a fixed candidate on the first
// training event.
type trainOnce struct {
	cand   uint64
	fired  bool
	filled []uint64
}

func (p *trainOnce) Name() string { return "trainonce" }
func (p *trainOnce) Train(a prefetch.Access) []uint64 {
	if p.fired {
		return nil
	}
	p.fired = true
	return []uint64{p.cand}
}
func (p *trainOnce) Fill(line uint64) { p.filled = append(p.filled, line) }

func TestPrefetchFillAndUseful(t *testing.T) {
	h := newTestHierarchy(t, 1)
	trigger := uint64(1 << 22)
	cand := trigger>>6 + 2 // line address two ahead
	pf := &trainOnce{cand: cand}
	h.AttachPrefetcher(0, pf)

	done := h.Access(0, 1, trigger, false, 0)
	// Let the prefetch complete, then demand it: should be an L2 hit and
	// counted useful.
	h.Access(0, 1, trigger+999999, false, done+1000) // unrelated access to drain fills
	s := h.CoreStats(0)
	if s.PfIssued != 1 || s.PfToDRAM != 1 {
		t.Fatalf("prefetch not issued to DRAM: %+v", s)
	}
	if len(pf.filled) != 1 || pf.filled[0] != cand {
		t.Fatalf("Fill callback got %v, want [%d]", pf.filled, cand)
	}
	before := h.CoreStats(0).PfUseful
	h.Access(0, 1, cand<<6, false, done+2000)
	if got := h.CoreStats(0).PfUseful; got != before+1 {
		t.Errorf("useful prefetch not counted: %d -> %d", before, got)
	}
}

func TestLatePrefetchMerge(t *testing.T) {
	h := newTestHierarchy(t, 1)
	trigger := uint64(1 << 23)
	cand := trigger>>6 + 1
	pf := &trainOnce{cand: cand}
	h.AttachPrefetcher(0, pf)

	h.Access(0, 1, trigger, false, 0)
	// Demand the prefetched line immediately: it is still in flight, so the
	// demand merges and counts as late.
	h.Access(0, 1, cand<<6, false, 1)
	s := h.CoreStats(0)
	if s.PfLate != 1 || s.PfUseful != 1 {
		t.Errorf("late merge not counted: late=%d useful=%d", s.PfLate, s.PfUseful)
	}
	// A late-merged demand still counts as an LLC load miss (not covered).
	if s.LLCLoadMisses < 2 {
		t.Errorf("LLC load misses = %d, want >= 2", s.LLCLoadMisses)
	}
}

// floodPF emits many candidates per training event.
type floodPF struct{ n int }

func (p *floodPF) Name() string { return "flood" }
func (p *floodPF) Train(a prefetch.Access) []uint64 {
	out := make([]uint64, p.n)
	for i := range out {
		out[i] = a.Line + uint64(i+1)
	}
	return out
}
func (p *floodPF) Fill(uint64) {}

func TestPrefetchBudgetDrops(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PrefetchBudget = 4
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.AttachPrefetcher(0, &floodPF{n: 20})
	h.Access(0, 1, 1<<24, false, 0)
	s := h.CoreStats(0)
	if s.PfToDRAM > 4 {
		t.Errorf("%d prefetches in flight, budget 4", s.PfToDRAM)
	}
	if s.PfDropped == 0 {
		t.Error("exceeding the budget must drop prefetches")
	}
}

func TestDuplicatePrefetchDropped(t *testing.T) {
	h := newTestHierarchy(t, 1)
	trigger := uint64(1 << 25)
	pf := &floodPF{n: 1}
	h.AttachPrefetcher(0, pf)
	h.Access(0, 1, trigger, false, 0)
	issued := h.CoreStats(0).PfIssued
	// Re-access: candidate is already outstanding or cached; must be dropped.
	h.Access(0, 1, trigger, false, 1)
	s := h.CoreStats(0)
	if s.PfIssued != issued {
		t.Errorf("duplicate prefetch issued: %d -> %d", issued, s.PfIssued)
	}
	if s.PfDropped == 0 {
		t.Error("duplicate should be counted as dropped")
	}
}

func TestMSHRLimitStallsDemands(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MSHRs = 2
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Issue 3 distinct demand misses at the same cycle: the third must wait
	// for an MSHR and finish last.
	d1 := h.Access(0, 1, 1<<26, false, 0)
	d2 := h.Access(0, 1, 1<<26+4096, false, 0)
	d3 := h.Access(0, 1, 1<<26+8192, false, 0)
	if d3 <= d1 || d3 <= d2 {
		t.Errorf("MSHR-limited miss should complete last: %d %d %d", d1, d2, d3)
	}
}

func TestWritebackTraffic(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLCSizeKBPerCore = 256 // small LLC to force evictions
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(0)
	// Fill far beyond LLC capacity with stores.
	for i := 0; i < 10000; i++ {
		cycle = h.Access(0, 1, uint64(i)*64+1<<30, true, cycle)
	}
	h.Flush()
	if h.DRAM().Stats().Writes == 0 {
		t.Error("store-heavy overflow produced no writebacks")
	}
}

func TestMultiCoreIsolation(t *testing.T) {
	h := newTestHierarchy(t, 2)
	h.Access(0, 1, 1<<27, false, 0)
	if s := h.CoreStats(1); s.Accesses != 0 {
		t.Errorf("core 1 saw core 0 traffic: %+v", s)
	}
}

func TestResetStatsClearsCores(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.Access(0, 1, 1<<28, false, 0)
	h.ResetStats()
	if s := h.CoreStats(0); s.Accesses != 0 || s.DRAMReads != 0 {
		t.Errorf("stats survive reset: %+v", s)
	}
}

func TestBandwidthUtilExposed(t *testing.T) {
	h := newTestHierarchy(t, 1)
	if u := h.BandwidthUtil(); u != 0 {
		t.Errorf("idle util = %v", u)
	}
	var _ prefetch.System = h // compile-time interface check
}

func TestTranslationScattersPhysically(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Translate = true
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A virtually contiguous walk across pages still works (hits after
	// fill), and generates DRAM traffic at scattered frames.
	// Spread lines across L1 sets so the working set is L1-resident.
	vaddr := func(i int) uint64 { return uint64(i)*4096 + uint64(i%64)*64 }
	cycle := int64(0)
	for i := 0; i < 256; i++ {
		cycle = h.Access(0, 1, vaddr(i), false, cycle)
	}
	if h.DRAM().Stats().Reads == 0 {
		t.Fatal("no DRAM reads")
	}
	// Re-access the same virtual addresses after completion: translations
	// must be stable, so these hit.
	h.Flush()
	missesBefore := h.CoreStats(0).L1Misses
	for i := 0; i < 256; i++ {
		cycle = h.Access(0, 1, vaddr(i), false, cycle+1000)
	}
	if h.CoreStats(0).L1Misses != missesBefore {
		t.Error("stable translations should make re-accesses L1 hits")
	}
}

func TestLLCPolicySelection(t *testing.T) {
	for _, pol := range []string{"", "ship", "drrip", "lru"} {
		cfg := DefaultConfig(1)
		cfg.LLCPolicy = pol
		if _, err := NewHierarchy(cfg); err != nil {
			t.Errorf("policy %q rejected: %v", pol, err)
		}
	}
	cfg := DefaultConfig(1)
	cfg.LLCPolicy = "random"
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestHierarchyInvariantsUnderRandomTraffic(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.AttachPrefetcher(0, prefetch.NewSPP(prefetch.DefaultSPPConfig()))
	rng := uint64(1234)
	cycle := int64(0)
	for i := 0; i < 30000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		addr := rng >> 24
		store := rng&7 == 0
		done := h.Access(0, 0x400+rng>>58, addr, store, cycle)
		if done < cycle {
			t.Fatalf("completion %d before issue %d", done, cycle)
		}
		cycle += int64(rng % 13)
	}
	h.Flush()
	s := h.CoreStats(0)
	if s.L1Misses > s.Accesses {
		t.Errorf("L1 misses %d exceed accesses %d", s.L1Misses, s.Accesses)
	}
	if s.L2Misses > s.L1Misses {
		t.Errorf("L2 misses %d exceed L1 misses %d", s.L2Misses, s.L1Misses)
	}
	if s.PfUseful > s.PfIssued {
		t.Errorf("useful prefetches %d exceed issued %d", s.PfUseful, s.PfIssued)
	}
	if s.PfToDRAM > s.PfIssued {
		t.Errorf("DRAM prefetches %d exceed issued %d", s.PfToDRAM, s.PfIssued)
	}
	dr := h.DRAM().Stats()
	if dr.Reads != s.DRAMReads {
		t.Errorf("controller reads %d != core-attributed reads %d (single core)", dr.Reads, s.DRAMReads)
	}
	if dr.RowHits+dr.RowMisses != dr.Reads+dr.Writes {
		t.Errorf("row outcomes %d don't cover accesses %d", dr.RowHits+dr.RowMisses, dr.Reads+dr.Writes)
	}
}

func TestCompletionMonotoneWithArrival(t *testing.T) {
	// For the same cold line, arriving later never completes earlier.
	mk := func(at int64) int64 {
		h := newTestHierarchy(t, 1)
		return h.Access(0, 1, 1<<29, false, at) - at
	}
	latEarly := mk(0)
	latLate := mk(1 << 20)
	if latEarly <= 0 || latLate <= 0 {
		t.Fatal("cold miss latency must be positive")
	}
}

// TestConfigKeyMatchesSprintf pins Config.Key to the %+v rendering that
// run identities and stored-result fingerprints were built from, on the
// configurations the experiments use and on random ones with every
// field, DRAM included, set by reflection (so a field Key forgets fails
// here).
func TestConfigKeyMatchesSprintf(t *testing.T) {
	var cfgs []Config
	for _, cores := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, DefaultConfig(cores))
	}
	for _, mtps := range []int{150, 600, 2400, 9600} {
		c := DefaultConfig(1)
		c.DRAM = c.DRAM.WithMTPS(mtps)
		cfgs = append(cfgs, c)
	}
	refresh := DefaultConfig(1)
	refresh.DRAM = refresh.DRAM.WithRefresh()
	translate := DefaultConfig(1)
	translate.Translate = true
	cfgs = append(cfgs, refresh, translate, Config{})
	for _, pol := range []string{"ship", "drrip", "lru"} {
		c := DefaultConfig(4)
		c.LLCPolicy = pol
		cfgs = append(cfgs, c)
	}

	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), 13.75, 7.8e3, 1e6, 1e21, 1e-5, 350, math.Inf(1), math.NaN()}
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			v.SetInt(rng.Int63n(1<<40) - 1<<39)
		case reflect.Float64:
			if rng.Intn(2) == 0 {
				v.SetFloat(floats[rng.Intn(len(floats))])
			} else {
				v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
			}
		case reflect.Bool:
			v.SetBool(rng.Intn(2) == 0)
		case reflect.String:
			v.SetString([]string{"", "ship", "drrip", "lru", "a b:{c}"}[rng.Intn(5)])
		default:
			t.Fatalf("Config field of kind %s: extend Key and this test", v.Kind())
		}
	}
	for i := 0; i < 500; i++ {
		var c Config
		fill(reflect.ValueOf(&c).Elem())
		cfgs = append(cfgs, c)
	}

	for _, c := range cfgs {
		if got, want := c.Key(), fmt.Sprintf("%+v", c); got != want {
			t.Fatalf("Key() = %q\nwant %%+v  %q", got, want)
		}
	}
}
