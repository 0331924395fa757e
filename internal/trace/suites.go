package trace

import (
	"fmt"
	"sort"
)

// Suite names used throughout the harness, matching the paper's Table 6.
const (
	SuiteSPEC06     = "SPEC06"
	SuiteSPEC17     = "SPEC17"
	SuitePARSEC     = "PARSEC"
	SuiteLigra      = "Ligra"
	SuiteCloudsuite = "Cloudsuite"
	// SuiteCVP2 holds the "unseen" traces of Fig. 12 (crypto/INT/FP/server).
	SuiteCVP2 = "CVP2"
)

// Workload is a named entry in the registry: a spec plus identity. Distinct
// traces of the same workload (the paper's "-417B"-style segments) share the
// workload name with different seeds.
type Workload struct {
	// Name is the trace name, e.g. "459.GemsFDTD-765B".
	Name string
	// Base is the workload name without the segment suffix.
	Base string
	// Suite is the benchmark suite.
	Suite string
	// Spec builds the trace; it must be called freshly per generation since
	// actors carry state.
	Spec func() Spec
	// fixed holds pre-decoded records for file-based workloads; when set,
	// Generate returns them regardless of the requested length.
	fixed *Trace
}

// Generate materializes n records of the workload.
func (w Workload) Generate(n int) *Trace {
	if w.fixed != nil {
		return w.fixed
	}
	return w.Spec().Generate(w.Name, w.Suite, n)
}

// Iter returns a one-pass iterator over the workload's records — the same
// sequence Generate(n) materializes, produced incrementally so arbitrarily
// long traces never need to be resident at once.
func (w Workload) Iter(n int) Iter {
	if w.fixed != nil {
		return &sliceIter{recs: w.fixed.Records}
	}
	return w.Spec().Generator(n)
}

// sliceIter is the one-pass Iter over a fixed workload's resident records.
type sliceIter struct{ recs []Record }

// FillChunk implements Iter.
func (it *sliceIter) FillChunk(c *Chunk, max int) int {
	n := min(max, len(it.recs))
	*c = append(*c, it.recs[:n]...)
	it.recs = it.recs[n:]
	return n
}

// NumRecords returns the exact record count Iter(n)/Generate(n) produce:
// n for generated workloads (0 for degenerate specs), the fixed length for
// file-backed ones.
func (w Workload) NumRecords(n int) int {
	if w.fixed != nil {
		return len(w.fixed.Records)
	}
	if n <= 0 || w.Spec().totalWeight() == 0 {
		return 0
	}
	return n
}

// Key returns a deterministic identity for the first n records of the
// workload, suitable as an on-disk cache key: it folds in the generator
// seed and GenVersion so cached traces invalidate when either the workload
// is re-seeded or generator output changes.
func (w Workload) Key(n int) string {
	if w.fixed != nil {
		return fmt.Sprintf("%s|fixed|n%d", w.Name, len(w.fixed.Records))
	}
	return fmt.Sprintf("%s|s%d|n%d|g%d", w.Name, w.Spec().Seed, n, GenVersion)
}

// Fixed wraps an already-materialized trace (e.g. decoded from a file) as a
// Workload usable anywhere a registry workload is.
func Fixed(t *Trace) Workload {
	return Workload{Name: t.Name, Base: t.Name, Suite: t.Suite, fixed: t}
}

// FixedTrace returns the pre-materialized trace of a file-backed workload,
// nil for generated ones. Consumers that would otherwise persist the
// workload (the stream trace cache) use it to serve the resident records
// directly: a fixed workload's Key carries no content identity, so caching
// it on disk could serve stale data after the source file changes.
func (w Workload) FixedTrace() *Trace { return w.fixed }

// registry is populated at init time.
var registry []Workload

// All returns every registered workload trace (the paper's 150-trace list
// plus the CVP2 unseen set), sorted by suite then name.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// BySuite returns all workload traces of one suite.
func BySuite(suite string) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the workload with the given trace name.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Suites returns the evaluated suite names in the paper's presentation order
// (excluding the unseen CVP2 set).
func Suites() []string {
	return []string{SuiteSPEC06, SuiteSPEC17, SuitePARSEC, SuiteLigra, SuiteCloudsuite}
}

// Representative returns one trace per distinct workload of a suite: the
// harness uses this smaller set for sweep-heavy experiments.
func Representative(suite string) []Workload {
	seen := map[string]bool{}
	var out []Workload
	for _, w := range BySuite(suite) {
		if !seen[w.Base] {
			seen[w.Base] = true
			out = append(out, w)
		}
	}
	return out
}

// suiteShape applies per-suite defaults that set each suite's memory
// character: compute-heavy suites run at lower miss intensity (larger gaps,
// bigger cache-resident hot fraction), graph suites stay bandwidth-hungry.
func suiteShape(suite string, sp Spec) Spec {
	type shape struct {
		hotFrac float64
		gapMul  float64
	}
	shapes := map[string]shape{
		SuiteSPEC06:     {0.70, 2.0},
		SuiteSPEC17:     {0.70, 2.0},
		SuitePARSEC:     {0.65, 2.0},
		SuiteLigra:      {0.60, 4.0},
		SuiteCloudsuite: {0.50, 1.2},
		SuiteCVP2:       {0.60, 1.5},
	}
	sh := shapes[suite]
	if sp.HotFrac == 0 {
		sp.HotFrac = sh.hotFrac
	}
	if sh.gapMul > 0 {
		sp.MeanGap = int(float64(sp.MeanGap) * sh.gapMul)
	}
	return sp
}

func register(base, suite string, variants int, build func(seed int64) Spec) {
	for v := 0; v < variants; v++ {
		seed := int64(v)
		segment := fmt.Sprintf("%dB", 100*(v+1)+17*v)
		name := fmt.Sprintf("%s-%s", base, segment)
		if variants == 1 {
			name = base
		}
		registry = append(registry, Workload{
			Name:  name,
			Base:  base,
			Suite: suite,
			Spec:  func() Spec { return suiteShape(suite, build(seed)) },
		})
	}
}

// region returns a distinct, widely separated base address per actor slot so
// actors never alias.
func region(slot int) uint64 { return uint64(slot+1) << 33 }

func init() {
	registerSPEC06()
	registerSPEC17()
	registerPARSEC()
	registerLigra()
	registerCloudsuite()
	registerCVP2()
	sort.SliceStable(registry, func(i, j int) bool {
		if registry[i].Suite != registry[j].Suite {
			return registry[i].Suite < registry[j].Suite
		}
		return registry[i].Name < registry[j].Name
	})
}

func registerSPEC06() {
	reg := func(base string, variants int, build func(seed int64) Spec) {
		register(base, SuiteSPEC06, variants, build)
	}
	reg("410.bwaves", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 100, MeanGap: 12, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StreamActor{PC: 0x400100, Base: region(0), Dir: 1, Span: 4096}, 3},
			{&StrideActor{PC: 0x400140, Base: region(1), Stride: 2, Lines: 1 << 17}, 2},
			{&StrideActor{PC: 0x400180, Base: region(2), Stride: 1, Lines: 1 << 17}, 2},
		}}
	})
	reg("429.mcf", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 110, MeanGap: 8, StoreFrac: 0.15, Actors: []WeightedActor{
			{&ChaseActor{PC: 0x401000, Base: region(0), Lines: 1 << 18}, 5},
			{&StrideActor{PC: 0x401040, Base: region(1), Stride: 1, Lines: 1 << 16}, 2},
			{&ZipfActor{PC: 0x401080, Base: region(2), Lines: 1 << 17, Theta: 0.8}, 2},
		}}
	})
	reg("433.milc", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 120, MeanGap: 14, StoreFrac: 0.2, Actors: []WeightedActor{
			{&StrideActor{PC: 0x402000, Base: region(0), Stride: 3, Lines: 1 << 17}, 3},
			{&StreamActor{PC: 0x402040, Base: region(1), Dir: 1, Span: 2048}, 2},
		}}
	})
	reg("436.cactusADM", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 130, MeanGap: 16, StoreFrac: 0.2, Actors: []WeightedActor{
			{&DeltaChainActor{PC: 0x403000, Base: region(0), Chain: []int{1, 3, 1, 3, 1}}, 4},
			{&StrideActor{PC: 0x403040, Base: region(1), Stride: 4, Lines: 1 << 16}, 2},
		}}
	})
	reg("437.leslie3d", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 140, MeanGap: 10, StoreFrac: 0.15, Actors: []WeightedActor{
			{&StreamActor{PC: 0x404000, Base: region(0), Dir: 1, Span: 8192}, 3},
			{&StreamActor{PC: 0x404040, Base: region(1), Dir: -1, Span: 8192}, 2},
			{&StrideActor{PC: 0x404080, Base: region(2), Stride: 5, Lines: 1 << 16}, 2},
		}}
	})
	reg("445.gobmk", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 150, MeanGap: 40, StoreFrac: 0.1, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x405000, Base: region(0), Lines: 1 << 16, Theta: 0.7}, 3},
			{&StrideActor{PC: 0x405040, Base: region(1), Stride: 1, Lines: 1 << 14}, 1},
		}}
	})
	reg("450.soplex", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 160, MeanGap: 12, StoreFrac: 0.15, Actors: []WeightedActor{
			{&StrideActor{PC: 0x406000, Base: region(0), Stride: 1, Lines: 1 << 17}, 3},
			{&RegionActor{TriggerPC: 0x406100, Base: region(1), Footprint: []int{0, 1, 2, 4, 8, 9}, Regions: 4096}, 2},
			{&ChaseActor{PC: 0x406040, Base: region(2), Lines: 1 << 15}, 1},
		}}
	})
	reg("459.GemsFDTD", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 170, MeanGap: 12, StoreFrac: 0.1, Actors: []WeightedActor{
			{&DeltaChainActor{PC: 0x436a81, Base: region(0), Chain: []int{23}, Jitter: 30}, 3},
			{&DeltaChainActor{PC: 0x4377c5, Base: region(1), Chain: []int{11}, Jitter: 30}, 3},
			{&StreamActor{PC: 0x407080, Base: region(2), Dir: 1, Span: 4096}, 2},
		}}
	})
	reg("462.libquantum", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 180, MeanGap: 10, StoreFrac: 0.25, Actors: []WeightedActor{
			{&StreamActor{PC: 0x408000, Base: region(0), Dir: 1, Span: 1 << 16}, 6},
			{&StreamActor{PC: 0x408040, Base: region(1), Dir: 1, Span: 1 << 16}, 1},
		}}
	})
	reg("470.lbm", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 190, MeanGap: 9, StoreFrac: 0.35, Actors: []WeightedActor{
			{&StreamActor{PC: 0x409000, Base: region(0), Dir: 1, Span: 1 << 15}, 3},
			{&StrideActor{PC: 0x409040, Base: region(1), Stride: 2, Lines: 1 << 17}, 2},
			{&StrideActor{PC: 0x409080, Base: region(2), Stride: 7, Lines: 1 << 17}, 2},
		}}
	})
	reg("471.omnetpp", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 200, MeanGap: 18, StoreFrac: 0.2, Actors: []WeightedActor{
			{&ChaseActor{PC: 0x40a000, Base: region(0), Lines: 1 << 17}, 3},
			{&ZipfActor{PC: 0x40a040, Base: region(1), Lines: 1 << 17, Theta: 0.9}, 2},
		}}
	})
	reg("473.astar", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 210, MeanGap: 20, StoreFrac: 0.15, Actors: []WeightedActor{
			{&ChaseActor{PC: 0x40b000, Base: region(0), Lines: 1 << 16}, 4},
			{&StrideActor{PC: 0x40b040, Base: region(1), Stride: 1, Lines: 1 << 14}, 1},
		}}
	})
	reg("481.wrf", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 220, MeanGap: 14, StoreFrac: 0.2, Actors: []WeightedActor{
			{&StreamActor{PC: 0x40c000, Base: region(0), Dir: 1, Span: 4096}, 2},
			{&RegionActor{TriggerPC: 0x40c100, Base: region(1), Footprint: []int{0, 2, 4, 6, 8, 10, 12}, Regions: 2048}, 2},
		}}
	})
	reg("482.sphinx3", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 230, MeanGap: 13, StoreFrac: 0.1, Actors: []WeightedActor{
			{&RegionActor{TriggerPC: 0x40d000, Base: region(0), Footprint: []int{0, 1, 2, 3, 5, 8, 13, 21}, Regions: 4096}, 3},
			{&RegionActor{TriggerPC: 0x40d000, Base: region(3), Footprint: []int{0, 1, 3, 6, 10, 15}, Regions: 4096}, 2},
			{&RegionActor{TriggerPC: 0x40d200, Base: region(1), Footprint: []int{0, 4, 8, 12, 16}, Regions: 4096}, 2},
			{&ZipfActor{PC: 0x40d040, Base: region(2), Lines: 1 << 15, Theta: 0.8}, 1},
		}}
	})
	reg("483.xalancbmk", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 240, MeanGap: 22, StoreFrac: 0.15, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x40e000, Base: region(0), Lines: 1 << 18, Theta: 0.95}, 3},
			{&ChaseActor{PC: 0x40e040, Base: region(1), Lines: 1 << 15}, 2},
		}}
	})
	reg("403.gcc", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 250, MeanGap: 25, StoreFrac: 0.2, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x40f000, Base: region(0), Lines: 1 << 16, Theta: 0.85}, 2},
			{&StrideActor{PC: 0x40f040, Base: region(1), Stride: 1, Lines: 1 << 15}, 1},
			{&DeltaChainActor{PC: 0x40f080, Base: region(2), Chain: []int{2, 1, 2}}, 1},
		}}
	})
}

func registerSPEC17() {
	reg := func(base string, variants int, build func(seed int64) Spec) {
		register(base, SuiteSPEC17, variants, build)
	}
	reg("602.gcc_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 300, MeanGap: 24, StoreFrac: 0.2, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x500000, Base: region(0), Lines: 1 << 16, Theta: 0.85}, 2},
			{&DeltaChainActor{PC: 0x500080, Base: region(1), Chain: []int{1, 2}}, 2},
		}}
	})
	reg("605.mcf_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 310, MeanGap: 9, StoreFrac: 0.15, Actors: []WeightedActor{
			{&ChaseActor{PC: 0x501000, Base: region(0), Lines: 1 << 18}, 5},
			{&StrideActor{PC: 0x501040, Base: region(1), Stride: 1, Lines: 1 << 16}, 2},
		}}
	})
	reg("619.lbm_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 320, MeanGap: 8, StoreFrac: 0.35, Actors: []WeightedActor{
			{&StreamActor{PC: 0x502000, Base: region(0), Dir: 1, Span: 1 << 15}, 3},
			{&StrideActor{PC: 0x502040, Base: region(1), Stride: 3, Lines: 1 << 17}, 2},
		}}
	})
	reg("620.omnetpp_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 330, MeanGap: 18, StoreFrac: 0.2, Actors: []WeightedActor{
			{&ChaseActor{PC: 0x503000, Base: region(0), Lines: 1 << 17}, 3},
			{&ZipfActor{PC: 0x503040, Base: region(1), Lines: 1 << 16, Theta: 0.9}, 2},
		}}
	})
	reg("621.wrf_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 340, MeanGap: 14, StoreFrac: 0.2, Actors: []WeightedActor{
			{&RegionActor{TriggerPC: 0x504000, Base: region(0), Footprint: []int{0, 2, 4, 6, 8}, Regions: 2048}, 2},
			{&StreamActor{PC: 0x504040, Base: region(1), Dir: 1, Span: 4096}, 2},
		}}
	})
	reg("623.xalancbmk_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 350, MeanGap: 26, StoreFrac: 0.15, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x505000, Base: region(0), Lines: 1 << 18, Theta: 0.97}, 4},
			{&TemporalActor{PC: 0x505040, Base: region(1), Len: 8192}, 2},
		}}
	})
	reg("628.pop2_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 360, MeanGap: 13, StoreFrac: 0.2, Actors: []WeightedActor{
			{&StrideActor{PC: 0x506000, Base: region(0), Stride: 2, Lines: 1 << 17}, 3},
			{&RegionActor{TriggerPC: 0x506100, Base: region(1), Footprint: []int{0, 1, 3, 5}, Regions: 2048}, 2},
		}}
	})
	reg("649.fotonik3d_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 370, MeanGap: 10, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StreamActor{PC: 0x507000, Base: region(0), Dir: 1, Span: 1 << 14}, 4},
			{&DeltaChainActor{PC: 0x507040, Base: region(1), Chain: []int{5}}, 2},
		}}
	})
	reg("654.roms_s", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 380, MeanGap: 11, StoreFrac: 0.2, Actors: []WeightedActor{
			{&StreamActor{PC: 0x508000, Base: region(0), Dir: 1, Span: 8192}, 3},
			{&StrideActor{PC: 0x508040, Base: region(1), Stride: 4, Lines: 1 << 16}, 2},
		}}
	})
	reg("603.bwaves_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 390, MeanGap: 9, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StreamActor{PC: 0x509000, Base: region(0), Dir: 1, Span: 1 << 16}, 4},
			{&StrideActor{PC: 0x509040, Base: region(1), Stride: 2, Lines: 1 << 17}, 3},
		}}
	})
	reg("607.cactuBSSN_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 400, MeanGap: 15, StoreFrac: 0.2, Actors: []WeightedActor{
			{&DeltaChainActor{PC: 0x50a000, Base: region(0), Chain: []int{1, 3, 1, 3}}, 3},
			{&StrideActor{PC: 0x50a040, Base: region(1), Stride: 6, Lines: 1 << 16}, 2},
		}}
	})
	reg("657.xz_s", 1, func(seed int64) Spec {
		return Spec{Seed: seed + 410, MeanGap: 20, StoreFrac: 0.25, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x50b000, Base: region(0), Lines: 1 << 17, Theta: 0.8}, 2},
			{&StreamActor{PC: 0x50b040, Base: region(1), Dir: 1, Span: 2048}, 2},
		}}
	})
}

func registerPARSEC() {
	reg := func(base string, variants int, build func(seed int64) Spec) {
		register(base, SuitePARSEC, variants, build)
	}
	reg("canneal", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 500, MeanGap: 11, StoreFrac: 0.15, Actors: []WeightedActor{
			{&RegionActor{TriggerPC: 0x600000, Base: region(0), Footprint: []int{0, 1, 2, 3, 4, 5, 6, 7}, Regions: 8192}, 3},
			{&RegionActor{TriggerPC: 0x600000, Base: region(3), Footprint: []int{0, 1, 2, 5}, Regions: 8192}, 2},
			{&ChaseActor{PC: 0x600040, Base: region(1), Lines: 1 << 17}, 2},
			{&ZipfActor{PC: 0x600080, Base: region(2), Lines: 1 << 16, Theta: 0.8}, 1},
		}}
	})
	reg("facesim", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 510, MeanGap: 12, StoreFrac: 0.25, Actors: []WeightedActor{
			{&RegionActor{TriggerPC: 0x601000, Base: region(0), Footprint: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, Regions: 8192}, 3},
			{&RegionActor{TriggerPC: 0x601000, Base: region(2), Footprint: []int{0, 1, 2, 4, 6}, Regions: 8192}, 2},
			{&RegionActor{TriggerPC: 0x601200, Base: region(1), Footprint: []int{0, 2, 4, 6, 8, 10}, Regions: 4096}, 2},
		}}
	})
	reg("streamcluster", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 520, MeanGap: 9, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StreamActor{PC: 0x602000, Base: region(0), Dir: 1, Span: 1 << 15}, 4},
			{&StrideActor{PC: 0x602040, Base: region(1), Stride: 1, Lines: 1 << 17}, 2},
		}}
	})
	reg("raytrace", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 530, MeanGap: 16, StoreFrac: 0.1, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x603000, Base: region(0), Lines: 1 << 17, Theta: 0.85}, 2},
			{&RegionActor{TriggerPC: 0x603100, Base: region(1), Footprint: []int{0, 1, 4, 5, 8, 9}, Regions: 4096}, 2},
		}}
	})
	reg("fluidanimate", 2, func(seed int64) Spec {
		return Spec{Seed: seed + 540, MeanGap: 13, StoreFrac: 0.3, Actors: []WeightedActor{
			{&RegionActor{TriggerPC: 0x604000, Base: region(0), Footprint: []int{0, 1, 2, 4, 5, 6}, Regions: 4096}, 3},
			{&RegionActor{TriggerPC: 0x604000, Base: region(2), Footprint: []int{0, 2, 3, 7, 9, 12, 14}, Regions: 4096}, 2},
			{&StrideActor{PC: 0x604040, Base: region(1), Stride: 2, Lines: 1 << 16}, 2},
		}}
	})
}

// ligraSpec builds a Ligra-style graph workload. RunLen controls how long the
// in-page neighbor bursts are; gap controls intensity.
func ligraSpec(seed int64, vertices, runLen, gap int) Spec {
	return Spec{Seed: seed, MeanGap: gap, StoreFrac: 0.1, Actors: []WeightedActor{
		{&GraphActor{ScanPC: 0x700000, VisitPC: 0x700040, Base: region(0), VertBase: region(1), Vertices: vertices, RunLen: runLen, ScanFrac: 0.6}, 5},
		{&StreamActor{PC: 0x700080, Base: region(2), Dir: 1, Span: 8192}, 2},
	}}
}

func registerLigra() {
	type lg struct {
		name     string
		variants int
		vertices int
		runLen   int
		gap      int
	}
	graphs := []lg{
		{"BFS", 3, 1 << 16, 2, 6},
		{"BFSCC", 3, 1 << 16, 2, 6},
		{"BFS-Bitvector", 3, 1 << 15, 2, 7},
		{"BC", 3, 1 << 16, 3, 6},
		{"BellmanFord", 3, 1 << 16, 3, 5},
		{"CC", 4, 1 << 17, 2, 5},
		{"CF", 3, 1 << 16, 4, 6},
		{"MIS", 3, 1 << 15, 2, 7},
		{"PageRank", 4, 1 << 17, 3, 5},
		{"PageRankDelta", 4, 1 << 17, 2, 5},
		{"Radii", 3, 1 << 16, 3, 6},
		{"Triangle", 3, 1 << 16, 4, 7},
		{"KCore", 1, 1 << 15, 2, 7},
	}
	for i, g := range graphs {
		g := g
		base := int64(800 + 10*i)
		register(g.name, SuiteLigra, g.variants, func(seed int64) Spec {
			return ligraSpec(base+seed, g.vertices, g.runLen, g.gap)
		})
	}
}

func registerCloudsuite() {
	type cs struct {
		name     string
		variants int
		theta    float64
		gap      int
	}
	apps := []cs{
		{"cassandra", 14, 0.9, 15},
		{"cloud9", 13, 0.85, 18},
		{"nutch", 13, 0.92, 16},
		{"streaming", 13, 0.8, 12},
	}
	for i, a := range apps {
		a := a
		base := int64(900 + 10*i)
		register(a.name, SuiteCloudsuite, a.variants, func(seed int64) Spec {
			return Spec{Seed: base + seed, MeanGap: a.gap, StoreFrac: 0.2, Actors: []WeightedActor{
				{&ZipfActor{PC: 0x800000 + uint64(i)<<12, Base: region(0), Lines: 1 << 16, Theta: a.theta}, 3},
				{&TemporalActor{PC: 0x800040 + uint64(i)<<12, Base: region(1), Len: 8192}, 2},
				{&StreamActor{PC: 0x800080 + uint64(i)<<12, Base: region(2), Dir: 1, Span: 2048}, 2},
			}}
		})
	}
}

func registerCVP2() {
	reg := func(base string, variants int, build func(seed int64) Spec) {
		register(base, SuiteCVP2, variants, build)
	}
	reg("crypto", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 1000, MeanGap: 28, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StrideActor{PC: 0x900000, Base: region(0), Stride: 1, Lines: 1 << 14}, 3},
			{&ZipfActor{PC: 0x900040, Base: region(1), Lines: 1 << 13, Theta: 0.7}, 1},
		}}
	})
	reg("int", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 1010, MeanGap: 20, StoreFrac: 0.2, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x901000, Base: region(0), Lines: 1 << 16, Theta: 0.85}, 2},
			{&DeltaChainActor{PC: 0x901040, Base: region(1), Chain: []int{1, 2, 1}}, 2},
			{&ChaseActor{PC: 0x901080, Base: region(2), Lines: 1 << 15}, 1},
		}}
	})
	reg("fp", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 1020, MeanGap: 11, StoreFrac: 0.15, Actors: []WeightedActor{
			{&StreamActor{PC: 0x902000, Base: region(0), Dir: 1, Span: 8192}, 3},
			{&StrideActor{PC: 0x902040, Base: region(1), Stride: 3, Lines: 1 << 16}, 2},
		}}
	})
	reg("server", 3, func(seed int64) Spec {
		return Spec{Seed: seed + 1030, MeanGap: 16, StoreFrac: 0.25, Actors: []WeightedActor{
			{&ZipfActor{PC: 0x903000, Base: region(0), Lines: 1 << 18, Theta: 0.9}, 3},
			{&TemporalActor{PC: 0x903040, Base: region(1), Len: 4096}, 2},
		}}
	})
}
