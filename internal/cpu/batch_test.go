package cpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// This file pins the fused chunk kernel (core.go stepChunk) to the
// record-at-a-time shim (shim.go): same traces, same config, every
// observable bit-identical — per-core clocks, retirement, measurement
// windows, snapshotted cache statistics and the shared DRAM model.
// Coverage deliberately straddles chunk boundaries (lengths chunk-1,
// chunk, chunk+1), replays, multi-programmed interleaving and arbitrary
// batch sizes, because those are exactly the places where fusion could
// legally reorder arithmetic if the cycle-cap scheduling were wrong.

// mixedTrace returns a deterministic blend of hot-line hits, strided and
// random misses, stores, and variable non-memory gaps — adversarial for
// the issue clock, the load queue and the retirement loops at once.
func mixedTrace(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		r := trace.Record{PC: uint64(0x400 + rng.Intn(8)*4), NonMem: uint16(rng.Intn(9))}
		switch rng.Intn(4) {
		case 0: // hot line, L1-resident
			r.Addr = 1 << 20
		case 1: // strided misses
			r.Addr = uint64(i)*64 + 1<<30
		case 2: // page-local churn
			r.Addr = uint64(rng.Intn(64))*64 + 1<<25
		default: // scattered pages
			r.Addr = uint64(rng.Intn(1<<18)) * 4096
		}
		r.Store = rng.Intn(8) == 0
		recs[i] = r
	}
	return recs
}

// runBoth executes the same simulation twice — once forced onto the
// record-at-a-time shim, once on the fused kernel — and returns both
// systems for comparison.
func runBoth(t *testing.T, cfg SystemConfig, cores int, recs ...[]trace.Record) (shim, fused *System) {
	t.Helper()
	shimCfg := cfg
	shimCfg.recordShim = true
	shim = newSystem(t, shimCfg, cores, recs...)
	mustRun(t, shim)
	fused = newSystem(t, cfg, cores, recs...)
	mustRun(t, fused)
	return shim, fused
}

// ringRecords returns the logical front-to-back contents of a load ring.
func ringRecords(r *loadRing) []inflightLoad {
	out := make([]inflightLoad, 0, r.n)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out = append(out, r.buf[j])
	}
	return out
}

// requireIdentical compares every observable of two finished systems bit
// for bit.
func requireIdentical(t *testing.T, want, got *System) {
	t.Helper()
	for i := range want.Cores {
		a, b := want.Cores[i], got.Cores[i]
		if a.cycle != b.cycle || a.instret != b.instret || a.issueRem != b.issueRem ||
			a.replays != b.replays || a.records != b.records || a.finished != b.finished ||
			a.startCycle != b.startCycle || a.startInstret != b.startInstret ||
			a.finalCycle != b.finalCycle || a.doneInstret != b.doneInstret {
			t.Fatalf("core %d state diverged:\n want cycle=%d instret=%d issueRem=%d replays=%d records=%d final=%d\n got  cycle=%d instret=%d issueRem=%d replays=%d records=%d final=%d",
				i, a.cycle, a.instret, a.issueRem, a.replays, a.records, a.finalCycle,
				b.cycle, b.instret, b.issueRem, b.replays, b.records, b.finalCycle)
		}
		if !reflect.DeepEqual(ringRecords(&a.inflight), ringRecords(&b.inflight)) {
			t.Fatalf("core %d in-flight loads diverged:\n want %v\n got  %v",
				i, ringRecords(&a.inflight), ringRecords(&b.inflight))
		}
		if !reflect.DeepEqual(a.Stats(), b.Stats()) {
			t.Fatalf("core %d stats diverged:\n want %+v\n got  %+v", i, a.Stats(), b.Stats())
		}
		if a.IPC() != b.IPC() {
			t.Fatalf("core %d IPC diverged: %v vs %v", i, a.IPC(), b.IPC())
		}
	}
	if !reflect.DeepEqual(want.Hier.DRAM().Stats(), got.Hier.DRAM().Stats()) {
		t.Fatalf("DRAM stats diverged:\n want %+v\n got  %+v",
			want.Hier.DRAM().Stats(), got.Hier.DRAM().Stats())
	}
	if !reflect.DeepEqual(want.Hier.DRAM().Buckets(), got.Hier.DRAM().Buckets()) {
		t.Fatal("DRAM bandwidth buckets diverged")
	}
}

// TestBatchedMatchesShimAtChunkEdges sweeps trace lengths around the
// batch size — 1, chunk-1, chunk, chunk+1, and a multi-chunk length with
// a partial tail. Every length is short enough to force replays, so the
// Reset path lands at every possible offset within a batch.
func TestBatchedMatchesShimAtChunkEdges(t *testing.T) {
	const chunk = 256
	cfg := smallConfig()
	cfg.Chunk = chunk
	cfg.WarmupInstructions = 2_000
	cfg.SimInstructions = 20_000
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 3*chunk + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			shim, fused := runBoth(t, cfg, 1, mixedTrace(n, int64(n)))
			requireIdentical(t, shim, fused)
			if fused.Cores[0].Replays() == 0 {
				t.Error("trace was meant to replay mid-run; lengths need shrinking")
			}
		})
	}
}

// TestBatchedMatchesShimMultiCore holds the fused kernel to the shim's
// per-record core interleaving: heterogeneous trace lengths and speeds
// against a shared LLC and DRAM, where any deviation in scheduling order
// shifts contention and shows up in the stats.
func TestBatchedMatchesShimMultiCore(t *testing.T) {
	cfg := smallConfig()
	cfg.Chunk = 512
	cfg.WarmupInstructions = 2_000
	cfg.SimInstructions = 30_000
	for _, cores := range []int{2, 4} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			traces := make([][]trace.Record, cores)
			for i := range traces {
				traces[i] = mixedTrace(5_000+i*777, int64(100+i))
			}
			shim, fused := runBoth(t, cfg, cores, traces...)
			requireIdentical(t, shim, fused)
		})
	}
}

// TestBatchedChunkSizeInvariance: batch size is delivery granularity, not
// semantics — any chunk size must produce the same bits.
func TestBatchedChunkSizeInvariance(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupInstructions = 2_000
	cfg.SimInstructions = 20_000
	recs := mixedTrace(4_096, 9)
	base := newSystem(t, cfg, 1, recs) // default batch
	mustRun(t, base)
	for _, chunk := range []int{1, 3, 64, 1_000, 1 << 15} {
		c := cfg
		c.Chunk = chunk
		sys := newSystem(t, c, 1, recs)
		mustRun(t, sys)
		requireIdentical(t, base, sys)
	}
}

// TestEmptyTraceStepEquivalence: an empty trace spins the clock forward
// 1000 cycles per driver step on both paths, bumping the replay counter
// identically.
func TestEmptyTraceStepEquivalence(t *testing.T) {
	a := newSystem(t, smallConfig(), 1, []trace.Record{}).Cores[0]
	b := newSystem(t, smallConfig(), 1, []trace.Record{}).Cores[0]
	for i := 0; i < 3; i++ {
		if err := a.step(); err != nil {
			t.Fatal(err)
		}
		if err := b.stepChunk(math.MaxInt64, math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
	if a.cycle != b.cycle || a.replays != b.replays || a.instret != b.instret {
		t.Fatalf("empty-trace stepping diverged: shim (cycle=%d replays=%d) fused (cycle=%d replays=%d)",
			a.cycle, a.replays, b.cycle, b.replays)
	}
	if a.cycle != 3000 || a.replays != 3 {
		t.Fatalf("empty-trace semantics drifted: cycle=%d replays=%d, want 3000/3", a.cycle, a.replays)
	}
}

// TestIssueClockClosedForm proves the fused kernel's closed-form issue
// clock equals the shim's refill loop for every reachable (width,
// issueRem, instruction-count) combination.
func TestIssueClockClosedForm(t *testing.T) {
	for width := 1; width <= 8; width++ {
		for rem := 0; rem <= width; rem++ {
			for k := 1; k <= 80; k++ {
				// Reference: the shim's per-cycle refill loop.
				c1, r1, n := int64(1000), rem, k
				for n > 0 {
					if r1 == 0 {
						c1++
						r1 = width
					}
					take := n
					if take > r1 {
						take = r1
					}
					r1 -= take
					n -= take
				}
				// Closed form, as in stepChunk.
				c2, r2, kk := int64(1000), rem, k
				if kk <= r2 {
					r2 -= kk
				} else {
					kk -= r2
					refills := (kk + width - 1) / width
					c2 += int64(refills)
					r2 = refills*width - kk
				}
				if c1 != c2 || r1 != r2 {
					t.Fatalf("width=%d rem=%d k=%d: loop (%d,%d) closed form (%d,%d)",
						width, rem, k, c1, r1, c2, r2)
				}
			}
		}
	}
}

// TestLoadRing exercises the fixed-capacity FIFO through several
// fill/drain cycles so head wrap-around is covered.
func TestLoadRing(t *testing.T) {
	r := newLoadRing(3)
	next := int64(0)
	for round := 0; round < 5; round++ {
		for r.n < 3 {
			r.push(inflightLoad{idx: next, complete: next + 10})
			next++
		}
		want := next - 3
		for r.n > 0 {
			if got := r.front().idx; got != want {
				t.Fatalf("round %d: front idx %d, want %d", round, got, want)
			}
			r.pop()
			want++
		}
	}
}

// TestShimSurfacesReaderError mirrors TestRunSurfacesReaderError on the
// shim path (the default path's version runs the fused kernel).
func TestShimSurfacesReaderError(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("decode failed mid-run")
	cfg := smallConfig()
	cfg.recordShim = true
	sys, err := NewSystem(cfg, hier, []trace.Reader{&failingReader{left: 500, err: boom}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Run(context.Background()); !errors.Is(got, boom) {
		t.Fatalf("Run returned %v, want the reader's error", got)
	}
}

// TestShimHonorsCancellation mirrors TestRunHonorsCancellation on the
// shim path.
func TestShimHonorsCancellation(t *testing.T) {
	cfg := smallConfig()
	cfg.recordShim = true
	cfg.SimInstructions = 500_000_000
	sys := newSystem(t, cfg, 1, computeTrace(100_000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sys.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("canceled run took %v to return", d)
	}
}
