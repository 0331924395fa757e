// Package pythia_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper (printing the
// regenerated rows on first run), micro-benchmarks of the hot paths (see
// PERF.md for what each one measures and the recorded trajectory), and
// ablation benches for the design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure benches execute at ScaleQuick so the full suite finishes in
// minutes; use cmd/pythia-bench -scale default (optionally -parallel N
// and -json BENCH_<pr>.json) for the EXPERIMENTS.md numbers.
package pythia_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/cpu"
	"pythia/internal/dram"
	"pythia/internal/harness"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

var printOnce sync.Map // experiment id -> *sync.Once

// benchExperiment runs one paper experiment per iteration (cached runs make
// repeat iterations cheap) and prints the regenerated table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var table *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = exp.Run(context.Background(), harness.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
	}
	onceAny, _ := printOnce.LoadOrStore(id, &sync.Once{})
	onceAny.(*sync.Once).Do(func() {
		fmt.Println()
		fmt.Println(table.Render())
	})
}

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)  { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)  { benchExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B)  { benchExperiment(b, "fig8d") }
func BenchmarkFig9a(b *testing.B)  { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchExperiment(b, "fig9b") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }

// --- Micro-benchmarks of the hot paths ---

// streamAccesses pre-builds a training stream.
func streamAccesses(n int) []prefetch.Access {
	out := make([]prefetch.Access, n)
	line := uint64(1 << 22)
	for i := range out {
		out[i] = prefetch.Access{PC: 0x400 + uint64(i%8)*4, Line: line, Cycle: int64(i)}
		line++
	}
	return out
}

func BenchmarkPythiaTrain(b *testing.B) {
	p := core.MustNew(core.BasicConfig(), prefetch.NilSystem())
	acc := streamAccesses(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range p.Train(acc[i%len(acc)]) {
			p.Fill(c)
		}
	}
}

func BenchmarkQVStoreSearch(b *testing.B) {
	cfg := core.BasicConfig()
	qv := core.NewQVStore(cfg.Features, cfg.FeatureDim, len(cfg.Actions), cfg.PlanesPerVault, cfg.InitQ(), 1)
	st := core.State{PC: 0x400, Delta: 3}
	sig := qv.Signature(&st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qv.ArgmaxQ(sig)
	}
}

// BenchmarkQVStoreSearchResolved measures the search alone, with the
// signature's row offsets resolved once up front — the exact shape of the
// agent's hot path, where one resolve serves the lookup, the search and
// the eventual SARSA update.
func BenchmarkQVStoreSearchResolved(b *testing.B) {
	cfg := core.BasicConfig()
	qv := core.NewQVStore(cfg.Features, cfg.FeatureDim, len(cfg.Actions), cfg.PlanesPerVault, cfg.InitQ(), 1)
	st := core.State{PC: 0x400, Delta: 3}
	rs := qv.NewResolvedSig()
	qv.ResolveState(&st, &rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qv.ArgmaxQResolved(&rs)
	}
}

func BenchmarkQVStoreUpdate(b *testing.B) {
	cfg := core.BasicConfig()
	qv := core.NewQVStore(cfg.Features, cfg.FeatureDim, len(cfg.Actions), cfg.PlanesPerVault, cfg.InitQ(), 1)
	st := core.State{PC: 0x400, Delta: 3}
	sig := qv.Signature(&st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qv.Update(sig, i%16, 12, sig, (i+1)%16, cfg.Alpha, cfg.Gamma)
	}
}

// TestPythiaTrainAllocationFree asserts the training hot path stays
// allocation-free in steady state (the EQ and the agent's reused buffers
// absorb everything); the ISSUE budget is <= 2 allocs/op.
func TestPythiaTrainAllocationFree(t *testing.T) {
	p := core.MustNew(core.BasicConfig(), prefetch.NilSystem())
	acc := streamAccesses(4096)
	// Warm up: fill the EQ and grow every reusable buffer to steady state.
	for i := 0; i < 8192; i++ {
		for _, c := range p.Train(acc[i%len(acc)]) {
			p.Fill(c)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		for _, c := range p.Train(acc[i%len(acc)]) {
			p.Fill(c)
		}
		i++
	})
	if avg > 2 {
		t.Errorf("Pythia.Train allocates %.2f times/op, want <= 2", avg)
	}
}

// workloadAccesses concatenates the first n records of one
// representative workload per suite as training accesses, so every
// prefetcher sees the streams, strides, footprints and irregular traffic
// that make it emit candidates.
func workloadAccesses(n int) []prefetch.Access {
	var out []prefetch.Access
	for _, suite := range trace.Suites() {
		for _, r := range trace.Representative(suite)[0].Generate(n).Records {
			out = append(out, prefetch.Access{PC: r.PC, Line: r.Addr >> 6, Cycle: int64(len(out)), Store: r.Store})
		}
	}
	return out
}

// TestPrefetchersTrainAllocationFree asserts that every prefetcher the
// harness builds trains without allocating in steady state: each reuses
// one candidate buffer across Train calls (the prefetch.Prefetcher
// contract), so the simulation's training path allocates nothing per
// access.
func TestPrefetchersTrainAllocationFree(t *testing.T) {
	fdp := harness.PF{Name: "FDP(SPP)", L2: func(sys prefetch.System) prefetch.Prefetcher {
		return prefetch.NewFDP(prefetch.DefaultFDPConfig(), prefetch.NewSPP(prefetch.DefaultSPPConfig()), sys)
	}}
	pfs := []harness.PF{
		harness.Baseline(), harness.SPPPF(), harness.BingoPF(), harness.MLOPPF(),
		harness.DSPatchPF(), harness.PPFPF(), harness.StridePF(), harness.BasicPythiaPF(),
		harness.CPHWPF(), harness.Power7PF(), harness.IPCPPF(), harness.StrideStreamerPF(),
		harness.StridePythiaPF(), fdp,
		harness.HybridPF("St+S+B+D+M", harness.StridePF(), harness.SPPPF(), harness.BingoPF(),
			harness.DSPatchPF(), harness.MLOPPF()),
	}
	acc := workloadAccesses(4000)
	for _, pf := range pfs {
		for level, build := range []func(prefetch.System) prefetch.Prefetcher{pf.L1, pf.L2} {
			if build == nil {
				continue
			}
			p := build(prefetch.NilSystem())
			issued := 0
			pass := func() {
				for _, a := range acc {
					cands := p.Train(a)
					for _, c := range cands {
						p.Fill(c)
					}
					issued += len(cands)
				}
			}
			// One op is a whole pass, so a single allocation anywhere in
			// it fails the test. AllocsPerRun's own warm-up pass grows
			// every reused buffer and table to steady state.
			if avg := testing.AllocsPerRun(3, pass); avg != 0 {
				t.Errorf("%s L%d (%s).Train allocates %.0f times per %d accesses, want 0", pf.Name, level+1, p.Name(), avg, len(acc))
			}
			if p.Name() != "nopref" && issued == 0 {
				t.Errorf("%s L%d issued no candidates: the traffic does not exercise it", pf.Name, level+1)
			}
		}
	}
}

// TestQVStoreSearchAllocationFree pins the resolve+search path at zero
// allocations.
func TestQVStoreSearchAllocationFree(t *testing.T) {
	cfg := core.BasicConfig()
	qv := core.NewQVStore(cfg.Features, cfg.FeatureDim, len(cfg.Actions), cfg.PlanesPerVault, cfg.InitQ(), 1)
	st := core.State{PC: 0x400, Delta: 3}
	rs := qv.NewResolvedSig()
	avg := testing.AllocsPerRun(1000, func() {
		qv.ResolveState(&st, &rs)
		qv.ArgmaxQResolved(&rs)
	})
	if avg != 0 {
		t.Errorf("resolve+search allocates %.2f times/op, want 0", avg)
	}
}

func BenchmarkSPPTrain(b *testing.B) {
	p := prefetch.NewSPP(prefetch.DefaultSPPConfig())
	acc := streamAccesses(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Train(acc[i%len(acc)])
	}
}

func BenchmarkBingoTrain(b *testing.B) {
	p := prefetch.NewBingo(prefetch.DefaultBingoConfig())
	acc := streamAccesses(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Train(acc[i%len(acc)])
	}
}

func BenchmarkMLOPTrain(b *testing.B) {
	p := prefetch.NewMLOP(prefetch.DefaultMLOPConfig())
	acc := streamAccesses(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Train(acc[i%len(acc)])
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := cache.NewHierarchy(cache.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycle int64
	for i := 0; i < b.N; i++ {
		cycle = h.Access(0, 0x400, uint64(i%100000)*64+1<<30, false, cycle)
	}
}

func BenchmarkDRAMRead(b *testing.B) {
	c := dram.NewController(dram.DDR4_2400(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%100000), int64(i)*4)
	}
}

func BenchmarkTraceGen(b *testing.B) {
	w, ok := trace.ByName("482.sphinx3-100B")
	if !ok {
		b.Fatal("missing workload")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := w.Generate(10_000)
		if len(t.Records) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// --- Trace-delivery benches (streaming vs materialized, PERF.md) ---

// benchDrainReader measures record-delivery throughput of an opened
// reader, reporting records per wall second.
func benchDrainReader(b *testing.B, open func() trace.Reader, n int) {
	b.Helper()
	b.ResetTimer()
	var recs int64
	for i := 0; i < b.N; i++ {
		r := open()
		count := 0
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			count++
		}
		if c, ok := r.(interface{ Close() error }); ok {
			c.Close()
		}
		if count != n {
			b.Fatalf("drained %d records, want %d", count, n)
		}
		recs += int64(count)
	}
	b.ReportMetric(float64(recs)/b.Elapsed().Seconds(), "recs/s")
}

const benchTraceLen = 400_000

// BenchmarkTraceDeliveryMaterialized is the seed architecture: generate
// the whole []Record up front (outside the timed loop, matching the
// harness trace cache), then replay it from memory.
func BenchmarkTraceDeliveryMaterialized(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	tr := w.Generate(benchTraceLen)
	benchDrainReader(b, func() trace.Reader { return trace.NewSliceReader(tr.Records) }, benchTraceLen)
}

// BenchmarkTraceDeliveryGenStream streams the generator through the chunk
// pipeline: generation cost is on the producer goroutine, overlapping the
// consumer.
func BenchmarkTraceDeliveryGenStream(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	src := &stream.GenSource{W: w, N: benchTraceLen}
	benchDrainReader(b, func() trace.Reader {
		r, err := src.Open()
		if err != nil {
			b.Fatal(err)
		}
		return r
	}, benchTraceLen)
}

// BenchmarkTraceDeliveryFileStream streams a cached on-disk trace through
// the chunk pipeline — the harness's ScaleLong path.
func BenchmarkTraceDeliveryFileStream(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	cache := stream.NewCache(b.TempDir())
	src, err := cache.Source(context.Background(), w, benchTraceLen, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchDrainReader(b, func() trace.Reader {
		r, err := src.Open()
		if err != nil {
			b.Fatal(err)
		}
		return r
	}, benchTraceLen)
}

// BenchmarkSimulatorEndToEndStreaming is BenchmarkSimulatorEndToEnd with
// streamed trace delivery, so the pipeline's overhead (or overlap win)
// shows up against the materialized number below.
func BenchmarkSimulatorEndToEndStreaming(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	src := &stream.GenSource{W: w, N: 100_000}
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		h, err := cache.NewHierarchy(cache.DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h.AttachPrefetcher(0, core.MustNew(core.BasicConfig(), h))
		r, err := src.Open()
		if err != nil {
			b.Fatal(err)
		}
		sys, err := cpu.NewSystem(cpu.SystemConfig{
			Core:               cpu.DefaultCoreConfig(),
			WarmupInstructions: 100_000,
			SimInstructions:    500_000,
		}, h, []trace.Reader{r})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		sys.Close()
		instr += sys.Cores[0].MeasuredInstructions()
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorEndToEnd reports whole-simulator throughput in
// simulated instructions per wall second.
func BenchmarkSimulatorEndToEnd(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	tr := w.Generate(100_000)
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		h, err := cache.NewHierarchy(cache.DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h.AttachPrefetcher(0, core.MustNew(core.BasicConfig(), h))
		sys, err := cpu.NewSystem(cpu.SystemConfig{
			Core:               cpu.DefaultCoreConfig(),
			WarmupInstructions: 100_000,
			SimInstructions:    500_000,
		}, h, []trace.Reader{trace.NewSliceReader(tr.Records)})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		instr += sys.Cores[0].MeasuredInstructions()
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// --- Ablation benches (DESIGN.md design-choice studies) ---

// ablationSpeedup measures Pythia's geomean speedup over three
// representative workloads under a config mutation.
func ablationSpeedup(b *testing.B, mutate func(*core.Config), label string) {
	b.Helper()
	cfg := cache.DefaultConfig(1)
	sc := harness.ScaleQuick
	var sp []float64
	for i := 0; i < b.N; i++ {
		sp = sp[:0]
		for _, name := range []string{"459.GemsFDTD-100B", "410.bwaves-100B", "CC-100B"} {
			w, ok := trace.ByName(name)
			if !ok {
				b.Fatal("missing workload")
			}
			c := core.BasicConfig()
			mutate(&c)
			c.Name = "pythia-" + label
			mix := trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}
			v, err := harness.SpeedupOn(context.Background(), mix, cfg, sc, harness.PythiaPF(c))
			if err != nil {
				b.Fatal(err)
			}
			sp = append(sp, v)
		}
	}
	g := stats.Geomean(sp)
	b.ReportMetric(g, "speedup")
	onceAny, _ := printOnce.LoadOrStore("abl-"+label, &sync.Once{})
	onceAny.(*sync.Once).Do(func() {
		fmt.Printf("[ablation %-22s] geomean speedup %.3f\n", label, g)
	})
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) {}, "basic")
}

func BenchmarkAblationPlanes1(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) { c.PlanesPerVault = 1 }, "planes1")
}

func BenchmarkAblationPlanes2(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) { c.PlanesPerVault = 2 }, "planes2")
}

func BenchmarkAblationEQ64(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) { c.EQSize = 64 }, "eq64")
}

func BenchmarkAblationEQ1024(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) { c.EQSize = 1024 }, "eq1024")
}

func BenchmarkAblationNoDynDegree(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) { c.DynDegree = false }, "nodyndegree")
}

func BenchmarkAblationFullActionList(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) {
		// Unpruned action space [-63, 63] (§4.3.2 motivates pruning).
		var acts []int
		for d := -63; d <= 63; d++ {
			acts = append(acts, d)
		}
		c.Actions = acts
	}, "fullactions")
}

func BenchmarkAblationSingleFeature(b *testing.B) {
	ablationSpeedup(b, func(c *core.Config) {
		c.Features = []core.Feature{core.FeaturePCDelta}
	}, "pcdeltaonly")
}

// --- Extended-study benches (design-space methods and ablations) ---

func BenchmarkExtPruning(b *testing.B)    { benchExperiment(b, "ext-pruning") }
func BenchmarkExtAutoTune(b *testing.B)   { benchExperiment(b, "ext-autotune") }
func BenchmarkExtFDP(b *testing.B)        { benchExperiment(b, "ext-fdp") }
func BenchmarkExtXlat(b *testing.B)       { benchExperiment(b, "ext-xlat") }
func BenchmarkExtFixedPoint(b *testing.B) { benchExperiment(b, "ext-fixedpoint") }

func BenchmarkScorecard(b *testing.B) { benchExperiment(b, "scorecard") }
