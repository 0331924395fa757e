package harness

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pythia/internal/cache"
	"pythia/internal/flight"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

// --- Run environment ---

// Env is what the simulations of a process share: the slots that bound
// how many simulate and generate traces at once, the materialized-trace
// memo, the on-disk trace cache, the result and policy stores, the run
// memo, the recycled spares and the process's sim and instruction
// counts. A process has one, defaultEnv; SetWorkers, SetTraceCacheDir,
// SetResultStore, SetPolicyStore, ResetCaches, SimCount,
// InstructionsRetired, Run, RunCached and TrainPolicyIn act on it.
type Env struct {
	// slots is the current slot set. SetWorkers swaps in a new one for
	// runs that start after it; a run gives its slot back to the set it
	// took it from.
	slots atomic.Pointer[slotSet]

	// streams is created at stream.DefaultDir on first use.
	streams atomic.Pointer[stream.Cache]
	// results and policies are nil when persistence is off (the default).
	results  atomic.Pointer[results.Store]
	policies atomic.Pointer[policy.Store]

	traces      sync.Map // Workload.Key -> *trace.Trace
	traceFlight flight.Group[*trace.Trace]
	runs        sync.Map // cacheKey -> RunResult
	runFlight   flight.Group[RunResult]

	// spares holds the cleared hierarchies of finished runs, for a later
	// run of the same geometry to recycle (cache.Recycle); a small
	// simulation otherwise spends a sizeable share of its time allocating
	// and zeroing them. It holds at most one per sim slot. It is not a
	// sync.Pool: a pool empties at every collection, and both perfbench
	// and a long-lived server collect between runs.
	sparesMu sync.Mutex
	spares   []*cache.Hierarchy

	// sims and instructions only ever grow; callers measure work by
	// deltas.
	sims         atomic.Int64
	instructions atomic.Int64
}

// defaultEnv is the process's run environment.
var defaultEnv = newEnv(runtime.GOMAXPROCS(0))

// newEnv returns an empty environment with workers sim slots.
func newEnv(workers int) *Env {
	e := &Env{}
	e.slots.Store(newSlotSet(workers))
	return e
}

// slotSet bounds concurrent work. sim caps the simulations executing at
// once; RunAll fan-out may nest (an experiment over a sweep whose cells
// run suites of workloads), so the cap is enforced where the work
// happens, in Run. gen bounds trace generation separately: generation
// happens inside Run, which already holds a sim slot, so sharing sim
// would self-deadlock at low worker counts. Transient cold-start CPU use
// is thus bounded by 2× the worker count.
type slotSet struct{ sim, gen sema }

func newSlotSet(n int) *slotSet {
	return &slotSet{sim: make(sema, n), gen: make(sema, n)}
}

// sema is a counting semaphore: a channel buffered to the slot count,
// holding one value per slot taken.
type sema chan struct{}

// acquire takes a slot, waiting until one is free or ctx is canceled. A
// canceled wait returns ctx.Err() without a slot, so canceled
// simulations never leak capacity. A free slot is taken at once, even
// under a canceled ctx, so which of the two wins never depends on
// select's random choice; the run sees the cancellation at its next
// check.
func (s sema) acquire(ctx context.Context) error {
	select {
	case s <- struct{}{}:
		return nil
	default:
	}
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees one slot.
func (s sema) release() { <-s }

func (e *Env) workers() int { return cap(e.slots.Load().sim) }

// SetWorkers bounds harness parallelism to n concurrent simulations; n ==
// 1 runs one at a time, and n <= 0 restores the default, GOMAXPROCS. Runs
// that start after it take their slots from a new set of n; runs in
// flight finish on the slots they hold. Worker count never affects
// experiment output, only wall time.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultEnv.slots.Store(newSlotSet(n))
}

// Workers reports the current parallelism bound.
func Workers() int { return defaultEnv.workers() }

// streamCache returns the on-disk trace cache for streaming runs.
func (e *Env) streamCache() *stream.Cache {
	if c := e.streams.Load(); c != nil {
		return c
	}
	e.streams.CompareAndSwap(nil, stream.NewCache(stream.DefaultDir()))
	return e.streams.Load()
}

// SetTraceCacheDir points streaming runs at a different on-disk trace
// cache directory (tests use a temp dir; clusters can share a populated
// one). An empty dir restores the default. It affects subsequent runs
// only.
func SetTraceCacheDir(dir string) {
	if dir == "" {
		dir = stream.DefaultDir()
	}
	defaultEnv.streams.Store(stream.NewCache(dir))
}

// SweepTraceCache reclaims stale temp files from the on-disk trace
// cache immediately; long-lived services call it at startup so a crash
// mid-population never leaves litter across restarts.
func SweepTraceCache() {
	defaultEnv.streamCache().Sweep()
}

// SetResultStore points RunCached at a persistent result store rooted at
// dir and returns it. An empty dir disables persistence (the default).
// It affects subsequent runs only; in-memory memoization is unchanged.
func SetResultStore(dir string) *results.Store {
	var st *results.Store
	if dir != "" {
		st = results.Open(dir)
	}
	defaultEnv.results.Store(st)
	return st
}

// SetPolicyStore points the warm-start experiments' training at a
// persistent policy store rooted at dir and returns it. An empty dir
// disables persistence (the default); training then always simulates.
func SetPolicyStore(dir string) *policy.Store {
	var st *policy.Store
	if dir != "" {
		st = policy.Open(dir)
	}
	defaultEnv.policies.Store(st)
	return st
}

// ResetCaches drops all memoized simulation results, materialized traces
// and pooled spares. Tests use it to force fresh runs; long-lived tools
// can use it to bound memory between sweeps.
func ResetCaches() {
	e := defaultEnv
	e.runs.Range(func(k, _ any) bool { e.runs.Delete(k); return true })
	e.traces.Range(func(k, _ any) bool { e.traces.Delete(k); return true })
	e.sparesMu.Lock()
	e.spares = nil
	e.sparesMu.Unlock()
}

// SimCount returns the number of simulations this process has executed;
// it is how tests and pythia-serve prove a result came from the store
// rather than from re-simulation. It only ever grows; callers measure
// work by deltas.
func SimCount() int64 { return defaultEnv.sims.Load() }

// InstructionsRetired returns the total instructions simulated by this
// process across all runs (warmup and replays included: it measures
// kernel work, not measurement windows).
func InstructionsRetired() int64 { return defaultEnv.instructions.Load() }

type simCounterKey struct{}

// WithSimCounter returns a context under which Run calls started once
// for every simulation it starts, besides counting it in the process's
// SimCount. A serve job counts its own simulations this way, however
// many jobs run in the process at once. started runs on the
// simulation's goroutine, so it must be safe for concurrent use. A
// callback attached further down replaces started.
func WithSimCounter(ctx context.Context, started func()) context.Context {
	return context.WithValue(ctx, simCounterKey{}, started)
}

// countSim accounts one simulation starting under ctx.
func (e *Env) countSim(ctx context.Context) {
	e.sims.Add(1)
	if started, ok := ctx.Value(simCounterKey{}).(func()); ok {
		started()
	}
}

// takeSpare removes and returns the most recently pooled spare
// hierarchy that fits cfg, or nil.
func (e *Env) takeSpare(cfg cache.Config) *cache.Hierarchy {
	e.sparesMu.Lock()
	defer e.sparesMu.Unlock()
	for i := len(e.spares) - 1; i >= 0; i-- {
		if sp := e.spares[i]; sp.Fits(cfg) {
			e.spares = slices.Delete(e.spares, i, i+1)
			return sp
		}
	}
	return nil
}

// putSpare pools sp, dropping the oldest spares beyond one per sim slot.
func (e *Env) putSpare(sp *cache.Hierarchy) {
	e.sparesMu.Lock()
	defer e.sparesMu.Unlock()
	e.spares = append(e.spares, sp)
	if over := len(e.spares) - e.workers(); over > 0 {
		e.spares = slices.Delete(e.spares, 0, over)
	}
}
