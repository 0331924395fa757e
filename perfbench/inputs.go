package main

import (
	"fmt"
	"math/rand"

	"pythia/internal/cache"
	"pythia/internal/harness"
	"pythia/internal/trace"
)

// The seed alone draws every input: the trace segments, the core order of
// each mix, the order of the specs in a round, the job scales and the read
// order. Each draw has its own
// generator, derived from the seed and a fixed salt, so adding a draw to
// one workload never shifts another's.
func drawRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// Inputs keep each workload's character fixed and let the seed draw its
// content: every trace is a fresh segment of a fixed memory-intensive
// base workload, generated from a seed-derived generator seed, exactly as
// the registry's own segments ("-100B", "-217B", ...) differ. Drawing the
// base workloads themselves from the seed moved the end-to-end metrics by
// 10-58% (quartile spread over five seeds) with the code unchanged, so a
// run would have measured the draw rather than the code.

// pythia1CBases are one memory-intensive base workload per suite: each
// misses the LLC at 10 or more MPKI without prefetching.
var pythia1CBases = []string{"459.GemsFDTD", "654.roms_s", "streamcluster", "PageRank", "cassandra"}

// zooBases are the heterogeneous 4-core mixes: every core runs a
// memory-intensive base from a different suite.
var zooBases = [][]string{
	{"410.bwaves", "605.mcf_s", "BFS", "canneal"},
	{"470.lbm", "649.fotonik3d_s", "nutch", "fluidanimate"},
	{"437.leslie3d", "603.bwaves_s", "CC", "cassandra"},
}

// segment returns a fresh segment of the registered base workload: its
// access-pattern spec with the generator seeded by gen.
func segment(base string, gen int64) (trace.Workload, error) {
	for _, w := range trace.All() {
		if w.Base != base {
			continue
		}
		spec := w.Spec
		return trace.Workload{
			Name:  fmt.Sprintf("%s-s%d", base, gen),
			Base:  base,
			Suite: w.Suite,
			Spec: func() trace.Spec {
				s := spec()
				s.Seed = gen
				return s
			},
		}, nil
	}
	return trace.Workload{}, fmt.Errorf("no registered workload %q", base)
}

// Scales. A sim-pythia-1c operation simulates 2.5M instructions and a
// sim-zoo-4c-stream operation 4 × 0.9M: tens of milliseconds each, so a
// run times every spec many times and reports per-spec medians.
var (
	pythia1CScale = harness.Scale{Warmup: 500_000, Sim: 2_000_000, TraceLen: 200_000}
	zoo4CScale    = harness.Scale{Warmup: 150_000, Sim: 750_000, TraceLen: 100_000, StreamChunk: 1 << 12}
)

// zooMTPS is the lowest point of the Fig. 8b bandwidth sweep: DRAM is
// the bottleneck there, which is where system-unaware prefetchers hurt.
const zooMTPS = 150

// pythia1CTraces draws a segment of each suite's base workload.
func pythia1CTraces(seed int64) ([]trace.Workload, error) {
	rng := drawRNG(seed, 1)
	var out []trace.Workload
	for _, b := range pythia1CBases {
		w, err := segment(b, rng.Int63())
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// zooMixesFor draws a segment of every base of every mix, and the order
// in which the mix's segments occupy the cores.
func zooMixesFor(seed int64) ([]trace.Mix, error) {
	rng := drawRNG(seed, 2)
	var out []trace.Mix
	for i, bases := range zooBases {
		m := trace.Mix{Name: fmt.Sprintf("Mix-%d", i+1)}
		for _, k := range rng.Perm(len(bases)) {
			w, err := segment(bases[k], rng.Int63())
			if err != nil {
				return nil, err
			}
			m.Workloads = append(m.Workloads, w)
		}
		out = append(out, m)
	}
	return out, nil
}

// simSpecs crosses workloads with prefetchers: spec i*len(pfs)+j runs
// prefetcher j on mix i, and the first prefetcher is the baseline.
func simSpecs(mixes []trace.Mix, cfg cache.Config, sc harness.Scale, pfs []harness.PF) []harness.RunSpec {
	var out []harness.RunSpec
	for _, m := range mixes {
		for _, pf := range pfs {
			out = append(out, harness.RunSpec{Mix: m, CacheCfg: cfg, Scale: sc, PF: pf})
		}
	}
	return out
}

// opOrder is the seed-shuffled order in which a round visits the specs.
func opOrder(seed int64, n int) []int {
	return drawRNG(seed, 3).Perm(n)
}

// serveInputs draws the serve-journal inputs: fresh experiment scales for
// the jobs and a Zipf order for the reads.
type serveInputs struct {
	scaleBase int
	reads     *rand.Rand
	zipf      *rand.Zipf
	zipfN     int
}

func newServeInputs(seed int64) *serveInputs {
	return &serveInputs{
		scaleBase: drawRNG(seed, 4).Intn(1 << 10),
		reads:     drawRNG(seed, 5),
	}
}

// Jobs are Fig. 14 renders of 6 runs of about 120k instructions each.
const (
	serveExperiment = "fig14"
	serveWarmup     = 20_000
	serveSimBase    = 100_000
	serveTraceLen   = 20_000
)

// scale returns job i's scale name. Every job of a run gets a distinct
// measured-instruction count, so no job can be served from the store and
// each must simulate; the trace length is shared, so the trace itself is
// generated once per process.
func (in *serveInputs) scale(i int) string {
	return fmt.Sprintf("custom:warmup=%d,sim=%d,tracelen=%d,wps=1,mixes=1",
		serveWarmup, serveSimBase+in.scaleBase+i, serveTraceLen)
}

// readZipfS is the skew of the read keys, internal/load's default.
const readZipfS = 1.2

// next picks the key for the next read among n written keys, Zipf-drawn
// over them in the order they were written, as internal/load's ReadClass
// draws over its key list: a few keys are hot and the tail is cold.
func (in *serveInputs) next(n int) int {
	if n == 1 {
		return 0
	}
	if in.zipfN != n {
		in.zipf = rand.NewZipf(in.reads, readZipfS, 1, uint64(n-1))
		in.zipfN = n
	}
	return int(in.zipf.Uint64())
}
