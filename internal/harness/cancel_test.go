package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// TestRunCanceledPromptlyAndReleasesSlots: canceling a long run returns
// ctx.Err() well before the simulation would finish, and the worker slot
// it held is released — a fresh simulation runs to completion afterwards.
func TestRunCanceledPromptlyAndReleasesSlots(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	long := Scale{Warmup: 1_000_000, Sim: 500_000_000, TraceLen: 100_000}
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: long, PF: Baseline()}

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Run(ctx, spec)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run get in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return promptly")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("cancellation took %v", d)
	}

	// The slot must be free again: a small run completes normally.
	if _, err := Run(bg, RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}); err != nil {
		t.Fatalf("run after cancellation failed: %v", err)
	}
}

// TestRunCachedDoesNotMemoizeErrors: a canceled RunCached must not poison
// the memoization — the next call with a live context simulates afresh and
// succeeds.
func TestRunCachedDoesNotMemoizeErrors(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := RunCached(canceled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCached under canceled ctx returned %v", err)
	}
	r, err := RunCached(bg, spec)
	if err != nil {
		t.Fatalf("retry after canceled RunCached failed: %v", err)
	}
	if len(r.IPC) != 1 || r.IPC[0] <= 0 {
		t.Fatalf("retry produced no result: %+v", r)
	}
}

// TestRunCachedStripsLivePFs: memoized results must not pin prefetcher
// state (a Pythia agent retains its whole QVStore); only direct Run
// callers see live PFs.
func TestRunCachedStripsLivePFs(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: BasicPythiaPF()}
	direct, err := Run(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.PFs) == 0 {
		t.Fatal("direct Run lost its live PFs")
	}
	for _, call := range []string{"first", "memoized"} {
		r, err := RunCached(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.PFs) != 0 {
			t.Errorf("%s RunCached result carries %d live PFs, want 0", call, len(r.PFs))
		}
	}
}

// TestRunAllStopsOnError: after a worker reports an error, RunAll stops
// dispatching further indices and returns that error.
func TestRunAllStopsOnError(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	boom := errors.New("cell failed")
	var calls atomic.Int32
	err := RunAll(bg, 1000, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunAll returned %v, want the worker error", err)
	}
	if n := calls.Load(); n > 100 {
		t.Errorf("RunAll dispatched %d calls after an early error", n)
	}
}

// TestRunAllHonorsContext: a pre-canceled context runs nothing.
func TestRunAllHonorsContext(t *testing.T) {
	canceled, cancel := context.WithCancel(bg)
	cancel()
	var calls atomic.Int32
	err := RunAll(canceled, 100, func(int) error { calls.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll returned %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("RunAll ran %d calls under a canceled context", calls.Load())
	}
}

// TestTracesForKeyIncludesSeed is the regression test for the in-memory
// materialized-trace cache key: it used to key by Name|length, so two
// same-named workloads differing only in generator seed collided and one
// silently simulated the other's records. The key is Workload.Key now.
func TestTracesForKeyIncludesSeed(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	base, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	reseeded := base
	origSpec := base.Spec
	reseeded.Spec = func() trace.Spec {
		s := origSpec()
		s.Seed += 1
		return s
	}

	const n = 5000
	ta, err := defaultEnv.tracesFor(bg, trace.Mix{Name: "m", Workloads: []trace.Workload{base}}, n)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := defaultEnv.tracesFor(bg, trace.Mix{Name: "m", Workloads: []trace.Workload{reseeded}}, n)
	if err != nil {
		t.Fatal(err)
	}
	if ta[0] == tb[0] {
		t.Fatal("same-named workloads with different seeds share a cached trace")
	}
	differs := len(ta[0].Records) != len(tb[0].Records)
	for i := 0; !differs && i < len(ta[0].Records); i++ {
		differs = ta[0].Records[i] != tb[0].Records[i]
	}
	if !differs {
		t.Fatal("reseeded workload produced identical records (seed not honored)")
	}
}

// TestSemaAcquireCanceledWhileWaiting: a waiter blocked on a full
// semaphore unblocks with ctx.Err() when its context is canceled, without
// consuming a slot.
func TestSemaAcquireCanceledWhileWaiting(t *testing.T) {
	s := newSlotSet(1).sim
	if err := s.acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() { errc <- s.acquire(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("acquire returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled acquire never returned")
	}
	s.release()
	// The canceled waiter must not have consumed the freed slot.
	if err := s.acquire(bg); err != nil {
		t.Fatal(err)
	}
	s.release()
}
