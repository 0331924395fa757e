// Package harness runs the paper's experiments: it wires workloads,
// prefetchers and system configurations into simulations, caches baseline
// runs, and exposes one function per table/figure of the evaluation (see
// the experiment index in DESIGN.md).
//
// Experiments fan their independent simulations out over a worker pool
// (SetWorkers / RunAll); every experiment table does so through one
// grid, runGrid, which runs all its specs in a single RunAll (speedup,
// coverage and overprediction tables through its pair view, pairGrid).
// Every simulation is deterministic and results are written into
// index-addressed slots, so a rendered table is byte-identical at any
// worker count (DESIGN.md "Experiment tables"; PERF.md describes the
// parallel architecture).
//
// The harness never panics on unrunnable work: construction, stream and
// simulation failures return as errors, and every entry point accepts a
// context.Context that aborts in-flight simulations at chunk boundaries
// with their worker slots released (DESIGN.md "Error model and
// cancellation").
package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/cpu"
	"pythia/internal/dram"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

// --- Worker pool ---

// RunAll invokes fn(0..n-1), fanning out over min(Workers()+1, n)
// goroutines. Every fn must write its result to its own index-addressed
// slot; on success RunAll returns nil once all calls complete, so the slot
// array is fully populated and tables stay byte-identical at any worker
// count. Calls may nest — the sim slots Run takes keep total CPU
// bounded.
//
// The goroutine beyond the sim slots is there for the work a call does
// outside its simulation: Run gives its slot back before RunCached writes
// the result to the store, so while one goroutine waits on that write
// (an fsync) another already simulates. At Workers() == 1 that still
// means exactly one simulation at a time.
//
// Errors short-circuit the fan-out: once any fn returns non-nil (or ctx is
// canceled), no further indices are dispatched, in-flight calls finish,
// and RunAll returns the first error observed; under a canceled ctx it
// returns ctx.Err() at any n, 0 included. Partial results in the slot
// array must be discarded by the caller.
func RunAll(ctx context.Context, n int, fn func(i int) error) error {
	w := Workers() + 1
	if w > n {
		w = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Scale controls simulation lengths so the full suite finishes in minutes
// instead of the paper's cluster-days; EXPERIMENTS.md records results at
// the default scale.
type Scale struct {
	// Warmup / Sim are per-core instruction counts.
	Warmup, Sim int64
	// TraceLen is records generated per trace (replayed as needed).
	TraceLen int
	// WorkloadsPerSuite caps per-suite workload counts in sweep-heavy
	// figures (0 = all).
	WorkloadsPerSuite int
	// HeteroMixes is the number of random heterogeneous multi-core mixes.
	HeteroMixes int
	// StreamChunk selects trace delivery. 0 replays traces materialized
	// once in memory and shared by every run, which is several times
	// faster than decoding a file (PERF.md); a positive value streams them
	// through the bounded-memory pipeline (internal/stream) in chunks of
	// this many records, for horizons memory cannot hold. Streaming
	// delivers exactly the same record sequence, so results are identical
	// either way — only speed, peak memory and the horizon ceiling change.
	StreamChunk int
}

// ScaleQuick is used by unit benchmarks and smoke tests.
var ScaleQuick = Scale{Warmup: 300_000, Sim: 1_000_000, TraceLen: 120_000, WorkloadsPerSuite: 2, HeteroMixes: 2}

// ScaleDefault is the standard evaluation scale.
var ScaleDefault = Scale{Warmup: 1_000_000, Sim: 4_000_000, TraceLen: 400_000, WorkloadsPerSuite: 4, HeteroMixes: 4}

// ScaleFull runs every registered trace.
var ScaleFull = Scale{Warmup: 2_000_000, Sim: 10_000_000, TraceLen: 1_000_000, WorkloadsPerSuite: 0, HeteroMixes: 8}

// ScaleLong is the paper-horizon scale the materialized architecture could
// not reach: ≥50M measured instructions per core over 8M-record traces,
// streamed through the chunk pipeline (a few MB resident per core instead
// of ~200 MB per trace). Designed for the long-horizon study, where the
// paper's Table 2 hyperparameters apply unmodified (see DESIGN.md
// "Horizon scaling").
var ScaleLong = Scale{Warmup: 10_000_000, Sim: 50_000_000, TraceLen: 8_000_000, WorkloadsPerSuite: 1, HeteroMixes: 1, StreamChunk: 1 << 15}

// PF names a prefetcher configuration and knows how to instantiate it per
// core. L1 is optional (multi-level schemes).
type PF struct {
	Name string
	L2   func(sys prefetch.System) prefetch.Prefetcher
	L1   func(sys prefetch.System) prefetch.Prefetcher
}

// Baseline is the no-prefetching configuration.
func Baseline() PF {
	return PF{Name: "nopref", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.None{} }}
}

// SPPPF returns the SPP baseline.
func SPPPF() PF {
	return PF{Name: "SPP", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewSPP(prefetch.DefaultSPPConfig()) }}
}

// BingoPF returns the Bingo baseline.
func BingoPF() PF {
	return PF{Name: "Bingo", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewBingo(prefetch.DefaultBingoConfig()) }}
}

// MLOPPF returns the MLOP baseline.
func MLOPPF() PF {
	return PF{Name: "MLOP", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewMLOP(prefetch.DefaultMLOPConfig()) }}
}

// DSPatchPF returns the DSPatch baseline.
func DSPatchPF() PF {
	return PF{Name: "DSPatch", L2: func(sys prefetch.System) prefetch.Prefetcher {
		return prefetch.NewDSPatch(prefetch.DefaultDSPatchConfig(), sys)
	}}
}

// PPFPF returns SPP+PPF.
func PPFPF() PF {
	return PF{Name: "SPP+PPF", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewPPF(prefetch.DefaultPPFConfig()) }}
}

// StridePF returns the PC-stride baseline.
func StridePF() PF {
	return PF{Name: "Stride", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStride(256, 2) }}
}

// PythiaPF returns Pythia with the given configuration.
func PythiaPF(cfg core.Config) PF {
	return PF{Name: cfg.Name, L2: func(sys prefetch.System) prefetch.Prefetcher { return core.MustNew(cfg, sys) }}
}

// BasicPythiaPF returns the Table 2 configuration.
func BasicPythiaPF() PF { return PythiaPF(core.BasicConfig()) }

// CPHWPF returns the contextual-bandit comparison point.
func CPHWPF() PF {
	return PF{Name: "CP-HW", L2: func(sys prefetch.System) prefetch.Prefetcher { return core.NewCPHW(sys) }}
}

// Power7PF returns the POWER7-style adaptive prefetcher.
func Power7PF() PF {
	return PF{Name: "POWER7", L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewPower7(prefetch.DefaultPower7Config()) }}
}

// IPCPPF returns IPCP as a multi-level (L1-trained) scheme.
func IPCPPF() PF {
	return PF{Name: "IPCP", L1: func(prefetch.System) prefetch.Prefetcher { return prefetch.NewIPCP(prefetch.DefaultIPCPConfig()) },
		L2: func(prefetch.System) prefetch.Prefetcher { return prefetch.None{} }}
}

// StrideStreamerPF returns the commercial-style multi-level scheme of
// Fig. 8d: stride at L1 plus streamer at L2.
func StrideStreamerPF() PF {
	return PF{
		Name: "Stride+Streamer",
		L1:   func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStride(256, 2) },
		L2:   func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStreamer(64, 8) },
	}
}

// StridePythiaPF returns stride at L1 plus Pythia at L2 (Fig. 8d).
func StridePythiaPF() PF {
	return PF{
		Name: "Stride+Pythia",
		L1:   func(prefetch.System) prefetch.Prefetcher { return prefetch.NewStride(256, 2) },
		L2:   func(sys prefetch.System) prefetch.Prefetcher { return core.MustNew(core.BasicConfig(), sys) },
	}
}

// HybridPF stacks several PF factories at the L2 (Fig. 9b/10b combos).
func HybridPF(name string, parts ...PF) PF {
	return PF{Name: name, L2: func(sys prefetch.System) prefetch.Prefetcher {
		ps := make([]prefetch.Prefetcher, 0, len(parts))
		for _, p := range parts {
			ps = append(ps, p.L2(sys))
		}
		return prefetch.NewMulti(name, ps...)
	}}
}

// StandardPFs returns the paper's headline comparison set.
func StandardPFs() []PF {
	return []PF{SPPPF(), BingoPF(), MLOPPF(), BasicPythiaPF()}
}

// RunSpec fully describes one simulation. It is data: every spec can be
// memoized and persisted. A caller that needs a run's live agents sets
// them up in its PF factory and reads them back from Run's
// RunResult.PFs.
type RunSpec struct {
	Mix      trace.Mix
	CacheCfg cache.Config
	Scale    Scale
	PF       PF
	// WarmStart restores a trained policy into every Pythia agent of the
	// run before simulation begins. The envelope's compatibility checks
	// apply: a configuration or generator-version mismatch fails the run
	// with a typed error (policy.ErrMismatch) instead of silently training
	// from scratch. The policy's identity is part of the run's cache key,
	// so warm and cold runs of one spec never share a memoized result.
	WarmStart *policy.Envelope
}

// RunResult summarizes one simulation. It is also the persisted form of
// a run (see storePersisted): every core's full counter set, not just the
// aggregates derived from them. Live prefetcher objects (PFs) are
// process-local and are not persisted; consumers that introspect policies
// already guard for their absence.
type RunResult struct {
	Name    string                    `json:"name"`
	IPC     []float64                 `json:"ipc"`
	Stats   []cache.CoreStats         `json:"core_stats"`
	Buckets [dram.BucketCount]float64 `json:"dram_buckets"`
	DRAM    dram.Stats                `json:"dram"`
	PFs     []prefetch.Prefetcher     `json:"-"`
}

// SumLLCLoadMisses totals demand-load LLC misses across cores.
func (r RunResult) SumLLCLoadMisses() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.LLCLoadMisses
	}
	return n
}

// SumDRAMReads totals LLC read misses (demand + prefetch) across cores.
func (r RunResult) SumDRAMReads() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.DRAMReads
	}
	return n
}

// --- Streaming trace delivery ---

// streamSources resolves each workload of a mix to a bounded-memory
// stream source. The disk cache shares one generation pass across every
// core, worker and experiment that wants the same trace; if the cache is
// unusable (unwritable directory), delivery falls back to per-reader
// generator replay, which costs CPU on replay but never materializes the
// trace either. A canceled ctx aborts the generation passes and returns
// ctx.Err().
func (e *Env) streamSources(ctx context.Context, mix trace.Mix, sc Scale) ([]stream.Source, error) {
	out := make([]stream.Source, len(mix.Workloads))
	err := RunAll(ctx, len(mix.Workloads), func(i int) error {
		w := mix.Workloads[i]
		gen := e.slots.Load().gen
		if err := gen.acquire(ctx); err != nil {
			return err
		}
		src, err := e.streamCache().Source(ctx, w, sc.TraceLen, sc.StreamChunk)
		gen.release()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			src = &stream.GenSource{W: w, N: sc.TraceLen, Chunk: sc.StreamChunk}
		}
		out[i] = src
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tracesFor materializes the traces of a mix: cached, generated in
// parallel, and deduplicated so concurrent runs of the same workload (e.g.
// a homogeneous mix, or a baseline and a prefetched run racing) generate
// each trace exactly once. The cache keys by the workload's full identity
// (Workload.Key: name, seed, length, generator version), not just its
// display name — two same-named workloads with different seeds must not
// share a materialized trace.
func (e *Env) tracesFor(ctx context.Context, mix trace.Mix, length int) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, len(mix.Workloads))
	err := RunAll(ctx, len(mix.Workloads), func(i int) error {
		w := mix.Workloads[i]
		key := w.Key(length)
		if v, ok := e.traces.Load(key); ok {
			out[i] = v.(*trace.Trace)
			return nil
		}
		t, _, err := e.traceFlight.Do(key, func() (*trace.Trace, error) {
			if v, ok := e.traces.Load(key); ok {
				return v.(*trace.Trace), nil
			}
			gen := e.slots.Load().gen
			if err := gen.acquire(ctx); err != nil {
				return nil, err
			}
			t := w.Generate(length)
			gen.release()
			e.traces.Store(key, t)
			return t, nil
		})
		if err != nil {
			return err
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Run executes one simulation. Concurrent callers are throttled to the
// worker limit; each simulation owns all its mutable state, so any number
// may run side by side with deterministic results. That state is built
// on a finished run's cleared arrays where one fits (see Env.spares),
// which changes no result.
//
// Errors are returned, never panicked: an unbuildable hierarchy or system,
// a stream that cannot open or fails mid-run, and a canceled ctx all
// surface as values, so long-lived callers (pythia-serve) survive a bad
// spec or a corrupted trace-cache file. Cancellation is prompt — checked
// while waiting for a worker slot, during trace generation, and at chunk
// boundaries inside the simulation — and the slot is always released on
// the way out. The run counts toward SimCount and calls the callback ctx
// carries, if any (WithSimCounter).
func Run(ctx context.Context, spec RunSpec) (RunResult, error) {
	return defaultEnv.run(ctx, spec)
}

func (e *Env) run(ctx context.Context, spec RunSpec) (RunResult, error) {
	sim := e.slots.Load().sim
	if err := sim.acquire(ctx); err != nil {
		return RunResult{}, err
	}
	defer sim.release()
	e.countSim(ctx)
	// A serve job's timeline (if one rides the context) learns when its
	// first worker reached each stage; Mark is a no-op outside serve.
	tl := obs.TimelineFrom(ctx)
	tl.Mark("streaming", time.Now())
	cores := len(spec.Mix.Workloads)
	cfg := spec.CacheCfg
	cfg.Cores = cores
	hier, err := cache.Recycle(cfg, e.takeSpare(cfg))
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: %s: hierarchy: %w", spec.Mix.Name, err)
	}

	readers, err := e.openReaders(ctx, spec)
	if err != nil {
		return RunResult{}, err
	}
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Core:               cpu.DefaultCoreConfig(),
		WarmupInstructions: spec.Scale.Warmup,
		SimInstructions:    spec.Scale.Sim,
	}, hier, readers)
	if err != nil {
		for _, r := range readers {
			r.Close()
		}
		return RunResult{}, fmt.Errorf("harness: %s: %w", spec.Mix.Name, err)
	}
	// Streaming readers own producer goroutines and file handles; release
	// them once the simulation is done.
	defer sys.Close()

	var pfs []prefetch.Prefetcher
	for i := 0; i < cores; i++ {
		if spec.PF.L2 != nil {
			p := spec.PF.L2(hier)
			hier.AttachPrefetcher(i, p)
			pfs = append(pfs, p)
		}
		if spec.PF.L1 != nil {
			hier.AttachL1Prefetcher(i, spec.PF.L1(hier))
		}
	}
	if spec.WarmStart != nil {
		restored := 0
		for _, p := range pfs {
			py, ok := p.(*core.Pythia)
			if !ok {
				continue
			}
			if err := spec.WarmStart.Restore(py); err != nil {
				return RunResult{}, fmt.Errorf("harness: %s: warm start: %w", spec.Mix.Name, err)
			}
			restored++
		}
		if restored == 0 {
			return RunResult{}, fmt.Errorf("harness: %s: warm start: prefetcher %s has no Pythia agent to restore into", spec.Mix.Name, spec.PF.Name)
		}
	}

	tl.Mark("simulating", time.Now())
	simStart := time.Now()
	if err := sys.Run(ctx); err != nil {
		return RunResult{}, fmt.Errorf("harness: %s/%s: %w", spec.Mix.Name, spec.PF.Name, err)
	}
	var retired int64
	for _, c := range sys.Cores {
		retired += c.Retired()
	}
	e.recordSimThroughput(retired, time.Since(simStart))

	res := RunResult{Name: spec.Mix.Name, PFs: pfs}
	for _, c := range sys.Cores {
		res.IPC = append(res.IPC, c.IPC())
		res.Stats = append(res.Stats, c.Stats())
	}
	res.Buckets = hier.DRAM().Buckets()
	res.DRAM = hier.DRAM().Stats()
	// The next run recycles this one's arrays. The spare holds the arrays
	// alone, so the pool keeps neither this run's trace nor its
	// prefetchers alive.
	e.putSpare(hier.Spare())
	return res, nil
}

// openReaders opens one trace reader per core of spec's mix, the only
// place a run's trace delivery is chosen. StreamChunk == 0 replays the
// memoized traces (tracesFor) through slice readers, which serve windows
// of the resident records. StreamChunk > 0 streams each trace through
// the bounded chunk pipeline instead, so the horizon is limited by disk,
// not memory.
// The record sequence is the same either way (stream package equivalence
// tests), so a spec yields the same result on both.
func (e *Env) openReaders(ctx context.Context, spec RunSpec) ([]trace.ChunkReader, error) {
	readers := make([]trace.ChunkReader, len(spec.Mix.Workloads))
	if spec.Scale.StreamChunk <= 0 {
		traces, err := e.tracesFor(ctx, spec.Mix, spec.Scale.TraceLen)
		if err != nil {
			return nil, err
		}
		for i, t := range traces {
			readers[i] = trace.NewSliceReader(t.Records)
		}
		return readers, nil
	}
	srcs, err := e.streamSources(ctx, spec.Mix, spec.Scale)
	if err != nil {
		return nil, err
	}
	for i, src := range srcs {
		r, err := src.Open()
		if err != nil {
			for _, r := range readers[:i] {
				r.Close()
			}
			return nil, fmt.Errorf("harness: open stream %s: %w", spec.Mix.Workloads[i].Name, err)
		}
		readers[i] = r
	}
	return readers, nil
}

// mixIdentity renders a mix's full composition, not just its display
// name: heterogeneous mixes are all named "Mix-N" while their workload
// draw varies with scale, so a name-only key would collide different
// compositions (fatal once keys outlive the process in the persistent
// store). Each workload contributes its canonical identity key
// (name, seed, length, generator version).
func mixIdentity(mix trace.Mix, traceLen int) string {
	parts := make([]string, 0, len(mix.Workloads)+1)
	parts = append(parts, mix.Name)
	for _, w := range mix.Workloads {
		parts = append(parts, w.Key(traceLen))
	}
	return strings.Join(parts, ",")
}

// cacheKey captures everything that affects a run's outcome. The whole
// cache/DRAM configuration is rendered into the key (cache.Config.Key,
// byte-identical to its %+v form) rather than a hand-picked subset: an
// earlier version listed individual fields and silently collided specs
// differing in the unlisted ones (Translate, LLCPolicy, geometry), serving
// one ablation arm the other arm's cached result; the mix contributes its
// full composition for the same reason (mixIdentity). StreamChunk is
// deliberately absent: streaming and materialized delivery produce the
// same records and therefore the same result, so runs differing only in
// delivery mode share a memoization slot. A warm-started run contributes
// its policy's content address: warm and cold runs of one spec produce
// different results and must never share a slot (on disk or in memory).
// The key also fingerprints the spec's stored result (runKey), so its
// bytes must not change: TestCacheKeyMatchesSprintfForm pins them to the
// fmt.Sprintf form that entries on disk were written under. RunCached
// renders it once per call.
func cacheKey(spec RunSpec) string {
	key := mixIdentity(spec.Mix, spec.Scale.TraceLen) + "|" + spec.PF.Name +
		"|c" + strconv.Itoa(len(spec.Mix.Workloads)) + "|" + spec.CacheCfg.Key() +
		"|w" + strconv.FormatInt(spec.Scale.Warmup, 10) +
		"|s" + strconv.FormatInt(spec.Scale.Sim, 10) +
		"|t" + strconv.Itoa(spec.Scale.TraceLen)
	if spec.WarmStart != nil {
		key += "|warm:" + spec.WarmStart.ID
	}
	return key
}

// stripPFs returns r without its live prefetcher objects. Memoized
// results must not pin PFs: a Pythia agent retains its whole QVStore, so
// caching it for the process lifetime would hold every table of every
// baseline ever run. The stripped form matches what the persistent store
// restores, keeping memory hits and disk hits indistinguishable.
func stripPFs(r RunResult) RunResult {
	r.PFs = nil
	return r
}

// RunCached executes a simulation, memoizing results (baselines recur in
// every figure). Concurrent callers with the same key are deduplicated
// through a singleflight: exactly one runs the simulation, the rest share
// its result (including its error — though errors are never memoized, so
// a later retry simulates afresh; note the shared result means a waiter
// can observe the leader's ctx cancellation). When a persistent store is
// configured (SetResultStore), a miss in memory falls through to disk
// before simulating, and fresh results are written back — so the
// memoization survives process restarts.
//
// RunCached results never carry live PFs, whether they come from memory
// or disk (see stripPFs); callers that introspect prefetcher state must
// use Run directly, which returns them in RunResult.PFs.
func RunCached(ctx context.Context, spec RunSpec) (RunResult, error) {
	return defaultEnv.runCached(ctx, spec)
}

func (e *Env) runCached(ctx context.Context, spec RunSpec) (RunResult, error) {
	key := cacheKey(spec)
	if v, ok := e.runs.Load(key); ok {
		return v.(RunResult), nil
	}
	r, _, err := e.runFlight.Do(key, func() (RunResult, error) {
		if v, ok := e.runs.Load(key); ok {
			return v.(RunResult), nil
		}
		if r, ok := e.loadPersisted(spec, key); ok {
			e.runs.Store(key, r)
			return r, nil
		}
		r, err := e.run(ctx, spec)
		if err != nil {
			return RunResult{}, err
		}
		e.storePersisted(spec, key, r)
		r = stripPFs(r)
		e.runs.Store(key, r)
		return r, nil
	})
	return r, err
}

// Speedup returns the geomean over cores of per-core IPC ratios between a
// prefetched run and its baseline.
func Speedup(pf, base RunResult) float64 {
	ratios := make([]float64, 0, len(pf.IPC))
	for i := range pf.IPC {
		if base.IPC[i] > 0 {
			ratios = append(ratios, pf.IPC[i]/base.IPC[i])
		}
	}
	return stats.Geomean(ratios)
}

// SpeedupOn runs prefetcher pf and the no-prefetch baseline on a mix and
// returns the speedup (both runs cached).
func SpeedupOn(ctx context.Context, mix trace.Mix, cfg cache.Config, sc Scale, pf PF) (float64, error) {
	base, err := RunCached(ctx, RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: Baseline()})
	if err != nil {
		return 0, err
	}
	run, err := RunCached(ctx, RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: pf})
	if err != nil {
		return 0, err
	}
	return Speedup(run, base), nil
}

// suiteWorkloads returns the workloads of a suite honoring the scale's
// per-suite cap.
func suiteWorkloads(suite string, sc Scale) []trace.Workload {
	ws := trace.Representative(suite)
	if sc.WorkloadsPerSuite > 0 && len(ws) > sc.WorkloadsPerSuite {
		ws = ws[:sc.WorkloadsPerSuite]
	}
	return ws
}

// single wraps a workload as a 1-core mix.
func single(w trace.Workload) trace.Mix {
	return trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}
}

// singles wraps each workload as a 1-core mix.
func singles(ws []trace.Workload) []trace.Mix {
	mixes := make([]trace.Mix, len(ws))
	for i, w := range ws {
		mixes[i] = single(w)
	}
	return mixes
}

// suitePool returns every suite's workloads in suite order, honoring the
// scale's per-suite cap.
func suitePool(sc Scale) []trace.Workload {
	var ws []trace.Workload
	for _, s := range trace.Suites() {
		ws = append(ws, suiteWorkloads(s, sc)...)
	}
	return ws
}

// suiteMixes returns suitePool's workloads as 1-core mixes.
func suiteMixes(sc Scale) []trace.Mix { return singles(suitePool(sc)) }
