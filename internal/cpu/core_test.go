package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// computeTrace returns a trace of n records whose accesses always hit a
// single hot line (L1-resident) with large non-memory gaps: effectively
// compute-bound.
func computeTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400, Addr: 1 << 20, NonMem: 40}
	}
	return recs
}

// missTrace returns a trace where every access is a fresh line: maximally
// memory-bound.
func missTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x800, Addr: uint64(i)*4096 + 1<<30, NonMem: 0}
	}
	return recs
}

func newSystem(t *testing.T, cfg SystemConfig, cores int, recs ...[]trace.Record) *System {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]trace.ChunkReader, cores)
	for i := 0; i < cores; i++ {
		readers[i] = trace.NewSliceReader(recs[i%len(recs)])
	}
	sys, err := NewSystem(cfg, hier, readers)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mustRun executes a system to completion, failing the test on any
// simulation error (these tests use in-memory readers, which cannot fail).
func mustRun(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func smallConfig() SystemConfig {
	return SystemConfig{
		Core:               DefaultCoreConfig(),
		WarmupInstructions: 5_000,
		SimInstructions:    50_000,
	}
}

func TestComputeBoundIPCNearWidth(t *testing.T) {
	sys := newSystem(t, smallConfig(), 1, computeTrace(100_000))
	mustRun(t, sys)
	ipc := sys.Cores[0].IPC()
	if ipc < 3.0 || ipc > 4.01 {
		t.Errorf("compute-bound IPC = %.2f, want near the 4-wide limit", ipc)
	}
}

func TestMemoryBoundIPCLow(t *testing.T) {
	sys := newSystem(t, smallConfig(), 1, missTrace(200_000))
	mustRun(t, sys)
	ipc := sys.Cores[0].IPC()
	if ipc >= 1.0 {
		t.Errorf("all-miss IPC = %.2f, should be far below the issue width", ipc)
	}
	if ipc <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestMeasuredInstructionCount(t *testing.T) {
	cfg := smallConfig()
	sys := newSystem(t, cfg, 1, computeTrace(100_000))
	mustRun(t, sys)
	c := sys.Cores[0]
	if !c.Finished() {
		t.Fatal("core did not finish")
	}
	got := c.MeasuredInstructions()
	if got < cfg.SimInstructions || got > cfg.SimInstructions+100 {
		t.Errorf("measured %d instructions, want ~%d", got, cfg.SimInstructions)
	}
}

func TestTraceReplay(t *testing.T) {
	// A short trace must be replayed until the instruction budget is met.
	cfg := smallConfig()
	sys := newSystem(t, cfg, 1, computeTrace(100)) // ~4100 instructions per pass
	mustRun(t, sys)
	if sys.Cores[0].Replays() == 0 {
		t.Error("short trace was not replayed")
	}
	if !sys.Cores[0].Finished() {
		t.Error("core did not finish despite replay")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	cfg := smallConfig()
	sys := newSystem(t, cfg, 1, missTrace(200_000))
	mustRun(t, sys)
	s := sys.Cores[0].Stats()
	// All-miss trace: roughly one access per record, only measured ones
	// counted. Warmup is 5k instructions = 5k records here.
	total := int64(200_000)
	if s.Accesses >= total {
		t.Errorf("stats include warmup: %d accesses", s.Accesses)
	}
	if s.Accesses == 0 {
		t.Error("no measured accesses")
	}
}

func TestMultiCoreAllFinish(t *testing.T) {
	cfg := smallConfig()
	sys := newSystem(t, cfg, 4, computeTrace(100_000), missTrace(100_000))
	mustRun(t, sys)
	for i, c := range sys.Cores {
		if !c.Finished() {
			t.Errorf("core %d unfinished", i)
		}
		if c.IPC() <= 0 {
			t.Errorf("core %d IPC %v", i, c.IPC())
		}
	}
}

func TestContentionSlowsSharedDRAM(t *testing.T) {
	cfg := smallConfig()
	solo := newSystem(t, cfg, 1, missTrace(300_000))
	mustRun(t, solo)
	soloIPC := solo.Cores[0].IPC()

	// Two memory-bound cores on a single channel must each run slower than
	// alone (DefaultConfig(2) keeps one channel).
	duo := newSystem(t, cfg, 2, missTrace(300_000))
	mustRun(t, duo)
	for i, c := range duo.Cores {
		if c.IPC() >= soloIPC {
			t.Errorf("core %d IPC %.3f not reduced by contention (solo %.3f)", i, c.IPC(), soloIPC)
		}
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// With a tiny ROB, the all-miss trace should run slower (less overlap).
	big := smallConfig()
	small := smallConfig()
	small.Core.ROB = 16
	sysBig := newSystem(t, big, 1, missTrace(200_000))
	mustRun(t, sysBig)
	sysSmall := newSystem(t, small, 1, missTrace(200_000))
	mustRun(t, sysSmall)
	if sysSmall.Cores[0].IPC() >= sysBig.Cores[0].IPC() {
		t.Errorf("ROB16 IPC %.3f should be below ROB256 IPC %.3f",
			sysSmall.Cores[0].IPC(), sysBig.Cores[0].IPC())
	}
}

func TestNewSystemValidation(t *testing.T) {
	hier, _ := cache.NewHierarchy(cache.DefaultConfig(2))
	if _, err := NewSystem(smallConfig(), hier, []trace.ChunkReader{trace.NewSliceReader(nil)}); err == nil {
		t.Error("reader/core mismatch should fail")
	}
	bad := smallConfig()
	bad.Core.Width = 0
	hier1, _ := cache.NewHierarchy(cache.DefaultConfig(1))
	if _, err := NewSystem(bad, hier1, []trace.ChunkReader{trace.NewSliceReader(nil)}); err == nil {
		t.Error("zero width should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		sys := newSystem(t, smallConfig(), 1, missTrace(100_000))
		mustRun(t, sys)
		return sys.Cores[0].IPC()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestAccessorsAndDefaults(t *testing.T) {
	def := DefaultCoreConfig()
	if def.Width != 4 || def.ROB != 256 || def.LQ != 72 {
		t.Errorf("default core config %+v does not match Table 5", def)
	}
	sys := newSystem(t, smallConfig(), 1, computeTrace(50_000))
	mustRun(t, sys)
	c := sys.Cores[0]
	if c.Cycle() <= 0 {
		t.Error("Cycle() not advancing")
	}
	if c.MeasuredCycles() <= 0 {
		t.Error("MeasuredCycles() not positive")
	}
	// IPC consistency: instructions / cycles.
	want := float64(c.MeasuredInstructions()) / float64(c.MeasuredCycles())
	if c.IPC() != want {
		t.Errorf("IPC %v inconsistent with %v", c.IPC(), want)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// A store-only miss stream should run much faster than a load-only one:
	// stores retire without waiting for data.
	mk := func(store bool) []trace.Record {
		recs := make([]trace.Record, 150_000)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: uint64(i)*4096 + 1<<33, Store: store}
		}
		return recs
	}
	loads := newSystem(t, smallConfig(), 1, mk(false))
	mustRun(t, loads)
	stores := newSystem(t, smallConfig(), 1, mk(true))
	mustRun(t, stores)
	if stores.Cores[0].IPC() <= loads.Cores[0].IPC() {
		t.Errorf("store IPC %.3f should exceed load IPC %.3f",
			stores.Cores[0].IPC(), loads.Cores[0].IPC())
	}
}

func TestLQLimitsInflightLoads(t *testing.T) {
	big := smallConfig()
	small := smallConfig()
	small.Core.LQ = 4
	a := newSystem(t, big, 1, missTrace(150_000))
	mustRun(t, a)
	b := newSystem(t, small, 1, missTrace(150_000))
	mustRun(t, b)
	if b.Cores[0].IPC() >= a.Cores[0].IPC() {
		t.Errorf("LQ4 IPC %.3f should trail LQ72 IPC %.3f", b.Cores[0].IPC(), a.Cores[0].IPC())
	}
}

// failingReader delivers one chunk of a few records, then stops with a
// sticky error — the shape of a streaming reader whose backing file
// corrupted mid-run.
type failingReader struct {
	left int
	err  error
}

func (r *failingReader) NextChunk() (trace.Chunk, bool) {
	if r.left <= 0 {
		return trace.Chunk{}, false
	}
	c := trace.NewChunk(r.left)
	for ; r.left > 0; r.left-- {
		c.Append(trace.Record{PC: 1, Addr: 64, NonMem: 1})
	}
	return *c, true
}

func (r *failingReader) Reset() {}

func (r *failingReader) Err() error {
	if r.left <= 0 {
		return r.err
	}
	return nil
}

func (r *failingReader) Close() error { return nil }

// TestRunSurfacesReaderError: a reader that fails mid-stream must abort
// the simulation with its error, not silently truncate or replay.
func TestRunSurfacesReaderError(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("decode failed mid-run")
	sys, err := NewSystem(smallConfig(), hier, []trace.ChunkReader{&failingReader{left: 500, err: boom}})
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Run(context.Background())
	if !errors.Is(got, boom) {
		t.Fatalf("Run returned %v, want the reader's error", got)
	}
}

// TestRunHonorsCancellation: a canceled context stops the run promptly
// with ctx.Err() instead of simulating to completion.
func TestRunHonorsCancellation(t *testing.T) {
	cfg := smallConfig()
	cfg.SimInstructions = 500_000_000 // far beyond what the test budget allows
	sys := newSystem(t, cfg, 1, computeTrace(100_000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := sys.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("canceled run took %v to return", d)
	}
	if sys.Cores[0].Finished() {
		t.Error("core claims to have finished a canceled run")
	}
}
