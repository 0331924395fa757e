// Package pythia_test holds the top-level micro-benchmarks of the hot
// paths (see PERF.md for what each one measures and the recorded
// trajectory), the allocation-budget tests, ablation benches for the
// design choices called out in DESIGN.md, and the scorecard bench.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/pythia-bench
// (-exp ID -scale quick|default); the end-to-end performance record is
// perfbench (PERF.md "Running the benchmarks").
package pythia_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// BenchmarkPythiaTrain times one steady-state Train (and the Fills of its
// candidates): the EQ is filled first, so every op evicts, updates and
// reuses the buffers the first inserts allocated.
func BenchmarkPythiaTrain(b *testing.B) {
	p := core.MustNew(core.BasicConfig(), prefetch.NilSystem())
	acc := streamAccesses(4096)
	for i := 0; i < 2*p.Config().EQSize; i++ {
		for _, c := range p.Train(acc[i%len(acc)]) {
			p.Fill(c)
		}
	}
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
// allocation-free in steady state: the EQ and the agent's reused buffers
// absorb everything, so a single allocation per op fails it.
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
	if avg != 0 {
		t.Errorf("Pythia.Train allocates %.2f times/op, want 0", avg)
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

// BenchmarkTraceGen materializes one workload at perfbench's
// sim-pythia-1c trace length, so the per-trace setup (spec, actors, seeding)
// is amortized as it is in a simulation run, reporting Mrec/s.
func BenchmarkTraceGen(b *testing.B) {
	const n = 200_000
	w, ok := trace.ByName("482.sphinx3-100B")
	if !ok {
		b.Fatal("missing workload")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := w.Generate(n)
		if len(t.Records) != n {
			b.Fatalf("generated %d records, want %d", len(t.Records), n)
		}
	}
	b.ReportMetric(float64(b.N)*n/1e6/b.Elapsed().Seconds(), "Mrec/s")
}

// --- Trace-delivery benches (streaming vs materialized, PERF.md) ---

// benchDrainReader measures record-delivery throughput of an opened
// reader through NextChunk, the batched path the fused simulation kernel
// consumes, reporting records per wall second.
func benchDrainReader(b *testing.B, open func() trace.ChunkReader, n int) {
	b.Helper()
	b.ResetTimer()
	var recs int64
	for i := 0; i < b.N; i++ {
		r := open()
		count := 0
		for {
			c, ok := r.NextChunk()
			if !ok {
				break
			}
			count += c.Len()
		}
		r.Close()
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
	benchDrainReader(b, func() trace.ChunkReader { return trace.NewSliceReader(tr.Records) }, benchTraceLen)
}

// BenchmarkTraceDeliveryGenStream streams the generator through the chunk
// pipeline: generation cost is on the producer goroutine, overlapping the
// consumer.
func BenchmarkTraceDeliveryGenStream(b *testing.B) {
	w, _ := trace.ByName("459.GemsFDTD-100B")
	src := &stream.GenSource{W: w, N: benchTraceLen}
	benchDrainReader(b, func() trace.ChunkReader {
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
	benchDrainReader(b, func() trace.ChunkReader {
		r, err := src.Open()
		if err != nil {
			b.Fatal(err)
		}
		return r
	}, benchTraceLen)
}

// BenchmarkTraceCacheFill times a trace-cache fill as a streamed
// experiment's set-up pays it: stream.Cache.Ensure generates and encodes
// three registry workloads of different suites into a fresh directory.
// It reports records written per wall second.
func BenchmarkTraceCacheFill(b *testing.B) {
	const n = 50_000
	var ws []trace.Workload
	for _, name := range []string{"459.GemsFDTD-100B", "482.sphinx3-100B", "canneal-100B"} {
		w, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	root := b.TempDir()
	b.ResetTimer()
	var recs int64
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		c := stream.NewCache(dir)
		for _, w := range ws {
			if _, err := c.Ensure(context.Background(), w, n); err != nil {
				b.Fatal(err)
			}
			recs += int64(w.NumRecords(n))
		}
		b.StopTimer()
		if c.Writes() != int64(len(ws)) {
			b.Fatalf("fill wrote %d traces, want %d", c.Writes(), len(ws))
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(recs)/b.Elapsed().Seconds(), "recs/s")
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
		}, h, []trace.ChunkReader{r})
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
		}, h, []trace.ChunkReader{trace.NewSliceReader(tr.Records)})
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

// BenchmarkRunCachedStoreHit times a stored-result hit as a later
// process over a stored sweep pays it: the in-memory memo is dropped
// before every harness.RunCached, so each call renders the run's key and
// reads and decodes its entry from the result store. perfbench's
// read_p50_ms/read_p90_ms time the same call end to end.
func BenchmarkRunCachedStoreHit(b *testing.B) {
	ws := func(names ...string) []trace.Workload {
		var out []trace.Workload
		for _, n := range names {
			w, ok := trace.ByName(n)
			if !ok {
				b.Fatalf("missing workload %s", n)
			}
			out = append(out, w)
		}
		return out
	}
	sc := harness.Scale{Warmup: 20_000, Sim: 80_000, TraceLen: 20_000}
	zooCfg := cache.DefaultConfig(4)
	zooCfg.DRAM = zooCfg.DRAM.WithMTPS(150)
	for _, bc := range []struct {
		name string
		spec harness.RunSpec
	}{
		{"pythia-1c", harness.RunSpec{
			Mix:      trace.Mix{Name: "459.GemsFDTD-100B", Workloads: ws("459.GemsFDTD-100B")},
			CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: harness.BasicPythiaPF(),
		}},
		{"zoo-4c", harness.RunSpec{
			Mix:      trace.Mix{Name: "Mix-1", Workloads: ws("459.GemsFDTD-100B", "482.sphinx3-100B", "462.libquantum-100B", "429.mcf-100B")},
			CacheCfg: zooCfg, Scale: sc, PF: harness.SPPPF(),
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := harness.SetResultStore(b.TempDir())
			defer harness.SetResultStore("")
			defer harness.ResetCaches()
			if _, err := harness.RunCached(context.Background(), bc.spec); err != nil {
				b.Fatal(err)
			}
			sims := harness.SimCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				harness.ResetCaches()
				if _, err := harness.RunCached(context.Background(), bc.spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if harness.SimCount() != sims || st.Hits() != int64(b.N) {
				b.Fatalf("%d store hits and %d sims over %d reads, want every read a hit", st.Hits(), harness.SimCount()-sims, b.N)
			}
		})
	}
}

// BenchmarkFreshScaleJob times one perfbench serve-journal job without
// the service around it: Fig. 14 at a custom: scale no earlier iteration
// used, over a result store, at one worker. Each iteration simulates six
// runs of about 120k instructions and writes six store entries, so it
// measures a small simulation's fixed costs (hierarchy set-up, the store
// write) beside the kernel. -benchmem reports what one job allocates.
func BenchmarkFreshScaleJob(b *testing.B) {
	harness.SetWorkers(1)
	defer harness.SetWorkers(0)
	st := harness.SetResultStore(b.TempDir())
	defer harness.SetResultStore("")
	defer harness.ResetCaches()
	exp, ok := harness.ExperimentByID("fig14")
	if !ok {
		b.Fatal("missing experiment fig14")
	}
	scale := func(i int) harness.Scale {
		sc, err := harness.ScaleByName(fmt.Sprintf("custom:warmup=20000,sim=%d,tracelen=20000,wps=1,mixes=1", 100_000+i))
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	// The warm-up job generates the trace every later job replays.
	if _, err := exp.Run(context.Background(), scale(-1)); err != nil {
		b.Fatal(err)
	}
	writes := st.Writes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background(), scale(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := st.Writes() - writes; got != int64(6*b.N) {
		b.Fatalf("%d jobs wrote %d store entries, want %d", b.N, got, 6*b.N)
	}
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

// BenchmarkScorecard regenerates the paper-claim scorecard at quick scale.
func BenchmarkScorecard(b *testing.B) { benchExperiment(b, "scorecard") }
