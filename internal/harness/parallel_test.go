package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/cache"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

func TestRunAllCoversEveryIndex(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, n := range []int{0, 1, 100} {
			hits := make([]int32, n)
			if err := RunAll(bg, n, func(i int) error { atomic.AddInt32(&hits[i], 1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunAllNests(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var n atomic.Int32
	err := RunAll(bg, 5, func(int) error {
		return RunAll(bg, 7, func(int) error { n.Add(1); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 35 {
		t.Errorf("nested RunAll ran %d leaf calls, want 35", n.Load())
	}
}

// The singleflight behind RunCached's deduplication is exercised directly
// in internal/flight; here we keep the end-to-end guarantee.

func TestRunCachedConcurrentCallersAgree(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: BasicPythiaPF()}
	const callers = 4
	out := make([]RunResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := RunCached(bg, spec)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = r
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if out[i].IPC[0] != out[0].IPC[0] {
			t.Fatalf("caller %d IPC %v != caller 0 IPC %v", i, out[i].IPC[0], out[0].IPC[0])
		}
	}
}

// TestExperimentDeterministicAcrossWorkerCounts is the parallel harness's
// core guarantee: the same experiment renders byte-identical tables at 1
// worker and at N workers (fresh caches each time, so every simulation
// actually re-runs). Every table here runs its cells through runGrid:
// Fig. 1, 7, 14 and 19 read coverage, overprediction or bandwidth
// buckets from its pair view; Fig. 9a, 12 and 23 gather per-workload
// speedups across suites, categories and warmup lengths; the
// long-horizon, warm-start and generalization studies hand it their own
// specs, the last two after training policies.
func TestExperimentDeterministicAcrossWorkerCounts(t *testing.T) {
	defer SetWorkers(0)
	for _, exp := range []struct {
		name string
		run  func(context.Context, Scale) (*stats.Table, error)
	}{
		{"Fig. 1", Fig1Motivation},
		{"Fig. 7", Fig7Coverage},
		{"Fig. 9a", Fig9aSingleCore},
		{"Fig. 12", Fig12Unseen},
		{"Fig. 14", Fig14BandwidthBuckets},
		{"Fig. 15", Fig15StrictPythia},
		{"Fig. 16", Fig16FeatureOpt},
		{"Fig. 19", Fig19FeatureSweep},
		{"Fig. 23", Fig23Warmup},
		{"ext-longhorizon", ExtLongHorizon},
		{"ext-warmstart", ExtWarmStart},
		{"ext-generalization", ExtGeneralization},
	} {
		render := func(workers int) string {
			SetWorkers(workers)
			ResetCaches()
			defer ResetCaches()
			return mustTable(t)(exp.run(bg, tinyScale)).Render()
		}
		seq := render(1)
		par := render(8)
		if seq != par {
			t.Errorf("%s table differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", exp.name, seq, par)
		}
	}
}

// trainProbe forwards to the prefetcher it wraps and calls onTrain at
// every Train, which the hierarchy makes on the simulation's goroutine.
type trainProbe struct {
	prefetch.Prefetcher
	onTrain func()
}

func (p trainProbe) Train(a prefetch.Access) []uint64 {
	p.onTrain()
	return p.Prefetcher.Train(a)
}

// TestRunAllOneSimulationPerSlot checks that at one worker RunAll over
// Fig. 14's specs runs two goroutines, so that one can write its result
// while the other simulates, but never two simulations at once. A run's
// PF factory runs inside its sim slot and marks the run as the latest
// to start; its prefetcher then flags any Train call made after another
// run's factory has run, which only a simulation still running beside
// that run can make. The first factory waits (for at most 5 s in all)
// until the second goroutine has entered its call, which proves the two
// goroutines overlap.
func TestRunAllOneSimulationPerSlot(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	w, ok := trace.ByName("CC-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	raise := func(peak *atomic.Int32, v int32) {
		for m := peak.Load(); v > m && !peak.CompareAndSwap(m, v); m = peak.Load() {
		}
	}
	var calls, callPeak, latest atomic.Int32
	var overlapped atomic.Bool
	pfs := fig14PFs()
	deadline := time.Now().Add(5 * time.Second)
	err := RunAll(bg, len(pfs), func(i int) error {
		raise(&callPeak, calls.Add(1))
		defer calls.Add(-1)
		pf, id := pfs[i], int32(i+1)
		build := pf.L2
		pf.L2 = func(sys prefetch.System) prefetch.Prefetcher {
			latest.Store(id)
			for callPeak.Load() < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return trainProbe{build(sys), func() {
				if latest.Load() != id {
					overlapped.Store(true)
				}
			}}
		}
		_, err := Run(bg, RunSpec{Mix: single(w), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: pf})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := callPeak.Load(); got != 2 {
		t.Errorf("RunAll had %d calls in flight at once, want 2 (one more than the sim slots)", got)
	}
	if overlapped.Load() {
		t.Error("a simulation trained after another run's prefetcher was built: two simulations ran at once at one worker")
	}
}

func TestSetWorkersBounds(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Errorf("default worker count %d", Workers())
	}
}

// TestSetWorkersMidRun: a run that took its slot before SetWorkers gives
// it back to the set it came from, and a run that starts after
// SetWorkers takes a slot of the new set at once.
func TestSetWorkersMidRun(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	held, free := make(chan struct{}), make(chan struct{})
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	holding := spec
	holding.PF = PF{Name: "holding", L2: func(prefetch.System) prefetch.Prefetcher {
		close(held)
		<-free
		return prefetch.None{}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Run(bg, holding)
		done <- err
	}()
	<-held
	SetWorkers(1)
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if _, err := Run(ctx, spec); err != nil {
		t.Fatalf("run after SetWorkers, beside a run on the old slots: %v", err)
	}
	close(free)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run on the old slots never returned its slot")
	}
	if n := len(defaultEnv.slots.Load().sim); n != 0 {
		t.Errorf("%d slots of the new set still taken after every run finished", n)
	}
}
