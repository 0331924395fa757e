package cpu

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/prefetch"
	"pythia/internal/trace"
)

// This file is the differential oracle for the fused kernel: systems
// drawn at random from a fixed seed — cache geometry, LLC policy,
// address translation, DRAM rate, prefetchers at L1 and L2, one to four
// cores, and random-length segments of registry traces — run once on the
// record-at-a-time shim and once on the fused kernel at a random batch
// size, and every observable must agree bit for bit.

// oraclePF builds one core's prefetchers; l1 may be nil.
type oraclePF struct {
	name string
	l1   func(prefetch.System) prefetch.Prefetcher
	l2   func(prefetch.System) prefetch.Prefetcher
}

func oraclePFs() []oraclePF {
	l1Stride := func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStride(256, 2) }
	pythia := func(sys prefetch.System) prefetch.Prefetcher { return core.MustNew(core.BasicConfig(), sys) }
	return []oraclePF{
		{name: "none", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.None{} }},
		{name: "nextline", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewNextLine(2) }},
		{name: "streamer", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStreamer(64, 8) }},
		{name: "spp", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewSPP(prefetch.DefaultSPPConfig()) }},
		{name: "bingo", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewBingo(prefetch.DefaultBingoConfig()) }},
		{name: "mlop", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewMLOP(prefetch.DefaultMLOPConfig()) }},
		{name: "dspatch", l2: func(sys prefetch.System) prefetch.Prefetcher {
			return prefetch.NewDSPatch(prefetch.DefaultDSPatchConfig(), sys)
		}},
		{name: "ppf", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewPPF(prefetch.DefaultPPFConfig()) }},
		{name: "power7", l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewPower7(prefetch.DefaultPower7Config()) }},
		{name: "ipcp", l1: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewIPCP(prefetch.DefaultIPCPConfig()) },
			l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.None{} }},
		{name: "pythia", l2: pythia},
		{name: "strict-pythia", l2: func(sys prefetch.System) prefetch.Prefetcher { return core.MustNew(core.StrictConfig(), sys) }},
		{name: "cphw", l2: func(sys prefetch.System) prefetch.Prefetcher { return core.NewCPHW(sys) }},
		{name: "stride+pythia", l1: l1Stride, l2: pythia},
		{name: "stride+streamer", l1: l1Stride, l2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStreamer(64, 8) }},
	}
}

// oracleCase is one randomly drawn system.
type oracleCase struct {
	hier  cache.Config
	sys   SystemConfig
	pf    oraclePF
	batch int
	recs  [][]trace.Record // one trace segment per core
}

func (c oracleCase) String() string {
	h := c.hier
	return fmt.Sprintf("%dc L1 %dK/%d L2 %dK/%d LLC %dK/%d %s translate=%v mtps=%d mshr=%d budget=%d rob=%d lq=%d pf=%s batch=%d warm=%d sim=%d",
		h.Cores, h.L1SizeKB, h.L1Ways, h.L2SizeKB, h.L2Ways, h.LLCSizeKBPerCore, h.LLCWays, h.LLCPolicy,
		h.Translate, h.DRAM.MTPS, h.MSHRs, h.PrefetchBudget, c.sys.Core.ROB, c.sys.Core.LQ,
		c.pf.name, c.batch, c.sys.WarmupInstructions, c.sys.SimInstructions)
}

// drawOracleCase draws one system. Every geometry yields power-of-two
// set counts; three cores use a 12-way LLC for that reason.
func drawOracleCase(rng *rand.Rand, workloads []trace.Workload, pfs []oraclePF) oracleCase {
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	cores := 1 + rng.Intn(4)
	h := cache.DefaultConfig(cores)
	h.L1SizeKB, h.L1Ways = pick(16, 32, 64), pick(4, 8)
	h.L2SizeKB, h.L2Ways = pick(128, 256, 512), pick(4, 8, 16)
	h.LLCSizeKBPerCore, h.LLCWays = pick(256, 512, 1024, 2048), pick(8, 16)
	if cores == 3 {
		h.LLCWays = 12
	}
	h.LLCPolicy = []string{"ship", "drrip", "lru"}[rng.Intn(3)]
	h.Translate = rng.Intn(2) == 0
	h.MSHRs, h.PrefetchBudget = pick(8, 32), pick(16, 64)
	h.DRAM = h.DRAM.WithMTPS(pick(150, 600, 2400, 9600))

	sys := SystemConfig{
		Core:               DefaultCoreConfig(),
		WarmupInstructions: int64(1_000 + rng.Intn(10_000)),
		SimInstructions:    int64(5_000 + rng.Intn(60_000)),
	}
	if rng.Intn(3) == 0 {
		sys.Core.ROB, sys.Core.LQ = pick(16, 64), pick(4, 16)
	}

	c := oracleCase{hier: h, sys: sys, pf: pfs[rng.Intn(len(pfs))], batch: pick(1, 7, 64, 500, 0)}
	for i := 0; i < cores; i++ {
		w := workloads[rng.Intn(len(workloads))]
		// Segments run from one record (a replay every record) to
		// several thousand (no replay at all).
		off, n := rng.Intn(2_000), 1+rng.Intn(pick(20, 500, 8_000))
		c.recs = append(c.recs, w.Generate(off + n).Records[off:])
	}
	return c
}

// runOracleSystem builds c's hierarchy, prefetchers and cores and runs
// them on the shim or on the fused kernel.
func runOracleSystem(t *testing.T, c oracleCase, shim bool) *System {
	t.Helper()
	hier, err := cache.NewHierarchy(c.hier)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]trace.ChunkReader, len(c.recs))
	for i, recs := range c.recs {
		hier.AttachPrefetcher(i, c.pf.l2(hier))
		if c.pf.l1 != nil {
			hier.AttachL1Prefetcher(i, c.pf.l1(hier))
		}
		r := trace.NewSliceReader(recs)
		r.SetBatch(c.batch)
		readers[i] = r
	}
	sys, err := NewSystem(c.sys, hier, readers)
	if err != nil {
		t.Fatal(err)
	}
	if shim {
		err = sys.runShim(context.Background(), c.recs)
	} else {
		err = sys.Run(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFusedMatchesShimRandomSystems runs the drawn systems on both paths
// and holds the fused kernel to the shim's per-core state, statistics,
// DRAM counters and bandwidth buckets.
func TestFusedMatchesShimRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	workloads, pfs := trace.All(), oraclePFs()
	for i := 0; i < 64; i++ {
		c := drawOracleCase(rng, workloads, pfs)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			shim := runOracleSystem(t, c, true)
			fused := runOracleSystem(t, c, false)
			t.Log(c)
			requireIdentical(t, shim, fused)
		})
	}
}
