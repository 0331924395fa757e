package harness

import (
	"os"
	"path/filepath"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/stream"
)

// streamScale is tinyScale with streaming delivery switched on.
var streamScale = Scale{
	Warmup: tinyScale.Warmup, Sim: tinyScale.Sim, TraceLen: tinyScale.TraceLen,
	WorkloadsPerSuite: tinyScale.WorkloadsPerSuite, HeteroMixes: tinyScale.HeteroMixes,
	StreamChunk: 4096,
}

// useTempTraceCache points streaming runs at a per-test cache directory.
func useTempTraceCache(t *testing.T) {
	t.Helper()
	SetTraceCacheDir(t.TempDir())
	t.Cleanup(func() { SetTraceCacheDir("") })
}

// TestStreamingRunMatchesMaterialized is the acceptance gate for the
// rewired harness: a streamed simulation must produce exactly the result
// of a materialized one — same IPC, same per-core statistics, same DRAM
// traffic — because the pipeline delivers the identical record sequence.
// This is what keeps every experiment table byte-identical whichever
// delivery path a scale selects.
func TestStreamingRunMatchesMaterialized(t *testing.T) {
	useTempTraceCache(t)
	mix := tinyMix(t)
	cfg := cache.DefaultConfig(1)
	for _, pf := range []PF{Baseline(), BasicPythiaPF()} {
		mat, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: tinyScale, PF: pf})
		if err != nil {
			t.Fatal(err)
		}
		str, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: streamScale, PF: pf})
		if err != nil {
			t.Fatal(err)
		}
		if mat.IPC[0] != str.IPC[0] {
			t.Errorf("%s: IPC %v materialized vs %v streamed", pf.Name, mat.IPC[0], str.IPC[0])
		}
		if mat.Stats[0] != str.Stats[0] {
			t.Errorf("%s: stats diverge:\nmaterialized %+v\nstreamed     %+v", pf.Name, mat.Stats[0], str.Stats[0])
		}
		if mat.DRAM != str.DRAM {
			t.Errorf("%s: DRAM stats diverge", pf.Name)
		}
		if mat.Buckets != str.Buckets {
			t.Errorf("%s: bandwidth buckets diverge", pf.Name)
		}
	}
}

// TestStreamingFallbackMatchesMaterialized covers the fallback of
// streamSources: a trace cache that cannot be created (its directory
// lies under a regular file) makes each source replay the generator
// (stream.GenSource), and a streamed run on it must still match the
// materialized run of the same spec.
func TestStreamingFallbackMatchesMaterialized(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	SetTraceCacheDir(filepath.Join(file, "traces"))
	t.Cleanup(func() { SetTraceCacheDir("") })
	mix := tinyMix(t)
	srcs, err := defaultEnv.streamSources(bg, mix, streamScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srcs[0].(*stream.GenSource); !ok {
		t.Fatalf("source over an unusable trace cache is %T, want *stream.GenSource", srcs[0])
	}
	spec := RunSpec{Mix: mix, CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: BasicPythiaPF()}
	mat, err := Run(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = streamScale
	str, err := Run(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mat.IPC[0] != str.IPC[0] || mat.Stats[0] != str.Stats[0] || mat.DRAM != str.DRAM || mat.Buckets != str.Buckets {
		t.Errorf("generator-replay run diverges from materialized:\nmaterialized %+v\nstreamed     %+v", mat, str)
	}
}

// TestStreamingMultiCoreReplay exercises the Reset path end to end: a
// 2-core homogeneous mix replays its streamed trace for the straggler
// core, and must match the materialized run exactly.
func TestStreamingMultiCoreReplay(t *testing.T) {
	useTempTraceCache(t)
	w := tinyMix(t).Workloads[0]
	mix := tinyMix(t)
	mix.Workloads = append(mix.Workloads, w)
	mix.Name = w.Name + "-homo2"
	cfg := cache.DefaultConfig(2)
	mat, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: tinyScale, PF: BasicPythiaPF()})
	if err != nil {
		t.Fatal(err)
	}
	str, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: streamScale, PF: BasicPythiaPF()})
	if err != nil {
		t.Fatal(err)
	}
	for c := range mat.IPC {
		if mat.IPC[c] != str.IPC[c] {
			t.Errorf("core %d: IPC %v materialized vs %v streamed", c, mat.IPC[c], str.IPC[c])
		}
		if mat.Stats[c] != str.Stats[c] {
			t.Errorf("core %d stats diverge", c)
		}
	}
}

// TestStreamingDeterministicAcrossWorkerCounts extends the harness's core
// determinism guarantee to the streaming path: tables rendered from
// streamed traces are byte-identical at any worker count (workers race at
// the trace cache through the population singleflight).
func TestStreamingDeterministicAcrossWorkerCounts(t *testing.T) {
	useTempTraceCache(t)
	defer SetWorkers(0)
	render := func(workers int) string {
		SetWorkers(workers)
		ResetCaches()
		defer ResetCaches()
		return mustTable(t)(ExtLongHorizon(bg, streamScale)).Render()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("long-horizon table differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestScaleLongShape pins the paper-horizon scale's invariants: at least
// 50M measured instructions per core, streaming delivery on, and a trace
// long enough that materializing it (~192 MB at 24 B/record) would dwarf
// the chunk ring it actually uses.
func TestScaleLongShape(t *testing.T) {
	if ScaleLong.Sim < 50_000_000 {
		t.Errorf("ScaleLong.Sim = %d, want >= 50M", ScaleLong.Sim)
	}
	if ScaleLong.StreamChunk <= 0 {
		t.Error("ScaleLong must stream")
	}
	if ScaleLong.TraceLen < 4_000_000 {
		t.Errorf("ScaleLong.TraceLen = %d: too short to exceed the materialized ceiling", ScaleLong.TraceLen)
	}
	sc, err := ScaleByName("long")
	if err != nil || sc != ScaleLong {
		t.Errorf("ScaleByName(long) = %+v, %v", sc, err)
	}
}
