package harness

import (
	"fmt"
	"reflect"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/prefetch"
	"pythia/internal/trace"
)

// pooledFit reports whether the pool holds a hierarchy that fits cfg.
func pooledFit(cfg cache.Config) bool {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	for _, sp := range spares.s {
		if sp.hier.Fits(cfg) {
			return true
		}
	}
	return false
}

// TestRecycledHierarchyMatchesFresh checks that a run on a recycled
// hierarchy gives exactly the results of a run on a fresh one. Before the
// recycled run, the spare is dirtied by a run of another prefetcher at
// another scale, so any array left uncleared would show in the counters.
// It covers every LLC policy, translation on and off, 1 and 4 cores, and
// Fig. 8d's multi-level prefetchers with their L1 prefetchers.
func TestRecycledHierarchyMatchesFresh(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	t.Cleanup(ResetCaches)
	sc := Scale{Warmup: 20_000, Sim: 80_000, TraceLen: 20_000}
	dirtyScale := Scale{Warmup: 30_000, Sim: 120_000, TraceLen: 30_000}
	var ws []trace.Workload
	for _, name := range []string{"459.GemsFDTD-100B", "CC-100B", "482.sphinx3-100B", "429.mcf-100B"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	pfs := []PF{StrideStreamerPF(), IPCPPF(), StridePythiaPF()}
	k := 0
	for _, cores := range []int{1, 4} {
		for _, policy := range []string{"ship", "drrip", "lru"} {
			for _, translate := range []bool{false, true} {
				pf := pfs[k%len(pfs)]
				k++
				t.Run(fmt.Sprintf("%dc/%s/xlat=%v/%s", cores, policy, translate, pf.Name), func(t *testing.T) {
					cfg := cache.DefaultConfig(cores)
					// A 256 KB LLC slice fills up within these short runs,
					// so replacement state (SHCT, RRPVs, stamps) decides
					// victims in both the dirtying and the recycled run.
					cfg.LLCSizeKBPerCore = 256
					cfg.LLCPolicy = policy
					cfg.Translate = translate
					mix := trace.Mix{Name: fmt.Sprintf("recycle-%dc", cores), Workloads: ws[:cores]}
					spec := RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: pf}

					ResetCaches()
					if pooledFit(cfg) {
						t.Fatal("ResetCaches left a spare in the pool")
					}
					fresh, err := Run(bg, spec)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: dirtyScale, PF: BingoPF()}); err != nil {
						t.Fatal(err)
					}
					if !pooledFit(cfg) {
						t.Fatal("no pooled hierarchy fits the spec, so nothing would be recycled")
					}
					recycled, err := Run(bg, spec)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fresh.IPC, recycled.IPC) {
						t.Errorf("IPC: fresh %v, recycled %v", fresh.IPC, recycled.IPC)
					}
					if !reflect.DeepEqual(fresh.Stats, recycled.Stats) {
						t.Errorf("core stats:\nfresh    %+v\nrecycled %+v", fresh.Stats, recycled.Stats)
					}
					if fresh.DRAM != recycled.DRAM {
						t.Errorf("DRAM stats: fresh %+v, recycled %+v", fresh.DRAM, recycled.DRAM)
					}
					if fresh.Buckets != recycled.Buckets {
						t.Errorf("bandwidth buckets: fresh %v, recycled %v", fresh.Buckets, recycled.Buckets)
					}
				})
			}
		}
	}
}

// TestHookRunKeepsItsHierarchy checks that a run with a Hook never gives
// its hierarchy to the pool: the hook may hold on to it.
func TestHookRunKeepsItsHierarchy(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	var kept *cache.Hierarchy
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline(),
		Hook: func(h *cache.Hierarchy, _ []prefetch.Prefetcher) { kept = h }}
	if _, err := Run(bg, spec); err != nil {
		t.Fatal(err)
	}
	if pooledFit(cache.DefaultConfig(1)) {
		t.Fatal("a hooked run gave its hierarchy to the pool")
	}
	if _, err := Run(bg, RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}); err != nil {
		t.Fatal(err)
	}
	// The hooked hierarchy is still whole: its statistics stay readable.
	if s := kept.CoreStats(0); s.Accesses == 0 {
		t.Errorf("kept hierarchy reports %+v", s)
	}
}
