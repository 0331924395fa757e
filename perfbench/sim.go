package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

// minRounds is the fewest times a run times each spec, per mode. The job
// p90 needs minJobs samples to have ten beyond it, and the read p90 rests
// on minReads; a run continues past --seconds until twice as many are
// taken, since the metrics use the quieter half (see quieter).
const (
	minRounds = 3
	minJobs   = 100
	minReads  = 1000
)

// readsPerRound is how many stored results are read back after each
// round.
const readsPerRound = 200

// simWorkload is one of the two simulation workloads.
type simWorkload struct {
	pfs   []harness.PF
	cache cache.Config
	scale harness.Scale
	// prepare builds the run's mixes, doing the input work a user pays
	// once (trace generation or stream-cache fill) into the trace cache
	// at dir, and reports what that work cost.
	prepare func(ctx context.Context, dir string) ([]trace.Mix, prepared, error)
	// equivalent returns spec run through the other delivery path.
	equivalent func(spec harness.RunSpec) harness.RunSpec
}

// prepared is the cost of one input preparation.
type prepared struct {
	genRecords int64
	genSec     float64
	fillSec    float64
}

func runSimPythia1C(ctx context.Context, cfg runConfig) (*outcome, error) {
	traces, err := pythia1CTraces(cfg.seed)
	if err != nil {
		return nil, err
	}
	return runSim(ctx, cfg, simWorkload{
		pfs:   []harness.PF{harness.Baseline(), harness.BasicPythiaPF()},
		cache: cache.DefaultConfig(1),
		scale: pythia1CScale,
		// Materialized delivery: traces are generated in memory once and
		// handed to the harness as fixed workloads, so no operation pays
		// for generation.
		prepare: func(ctx context.Context, dir string) ([]trace.Mix, prepared, error) {
			var p prepared
			mixes := make([]trace.Mix, 0, len(traces))
			for _, w := range traces {
				start := time.Now()
				t := w.Generate(pythia1CScale.TraceLen)
				p.genSec += time.Since(start).Seconds()
				p.genRecords += int64(len(t.Records))
				mixes = append(mixes, trace.Mix{Name: w.Name, Workloads: []trace.Workload{trace.Fixed(t)}})
			}
			return mixes, p, nil
		},
		// The same records from the generator, streamed through the
		// on-disk trace cache.
		equivalent: func(spec harness.RunSpec) harness.RunSpec {
			for _, w := range traces {
				if w.Name == spec.Mix.Name {
					spec.Mix = trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}
				}
			}
			spec.Scale.StreamChunk = zoo4CScale.StreamChunk
			return spec
		},
	})
}

func runSimZoo4C(ctx context.Context, cfg runConfig) (*outcome, error) {
	mixes, err := zooMixesFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	cc := cache.DefaultConfig(4)
	cc.DRAM = cc.DRAM.WithMTPS(zooMTPS)
	return runSim(ctx, cfg, simWorkload{
		pfs:   []harness.PF{harness.Baseline(), harness.SPPPF(), harness.BingoPF(), harness.MLOPPF()},
		cache: cc,
		scale: zoo4CScale,
		// Streamed delivery: every distinct trace is generated once into
		// the run's fresh on-disk trace cache, which the harness streams
		// from on every operation.
		prepare: func(ctx context.Context, dir string) ([]trace.Mix, prepared, error) {
			var p prepared
			c := stream.NewCache(dir)
			start := time.Now()
			for _, w := range distinct(mixes) {
				if _, err := c.Ensure(ctx, w, zoo4CScale.TraceLen); err != nil {
					return nil, p, err
				}
			}
			p.fillSec = time.Since(start).Seconds()
			return mixes, p, nil
		},
		equivalent: func(spec harness.RunSpec) harness.RunSpec {
			spec.Scale.StreamChunk = 0
			return spec
		},
	})
}

// distinct returns the distinct workloads of mixes, in first-use order.
func distinct(mixes []trace.Mix) []trace.Workload {
	seen := map[string]bool{}
	var out []trace.Workload
	for _, m := range mixes {
		for _, w := range m.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// specRecord is everything a run learns about one spec.
type specRecord struct {
	ref           *harness.RunResult // first result; every later one must equal it
	plain, traced []float64          // operation seconds, untraced and traced
	instr         int64              // instructions one operation simulates
	// demands and taken are Pythia's decisions in the first run that had
	// live prefetchers.
	demands, taken int64
	counted        bool
}

// layerTotals accumulates a traced run's layer measurements.
type layerTotals struct {
	ops                      int
	opNs, kinstr             float64
	core, prefetch           busy
	plainOps                 int
	allocBytes, mallocs, gcs float64
	genRecs, genSec          float64
	fillSec                  []float64
	drainRecs, drainSec      float64
	cacheHits, cacheLookups  float64
}

func runSim(ctx context.Context, cfg runConfig, w simWorkload) (*outcome, error) {
	out := &outcome{}
	spans := newSpanLog(cfg.trace)
	var (
		lt     layerTotals
		setups []sample
		mixes  []trace.Mix
		specs  []harness.RunSpec
		recs   []specRecord
		order  []int
		dir    string
	)
	hit0, lookup0 := traceCacheCounts()
	// A set-up starts from scratch, in a fresh trace cache with the
	// harness's memoized traces dropped, and replaces the inputs the
	// operations run on with identical ones. Its warm-up operation is
	// checked against the spec's first result like any other.
	setUp := func(rep int) error {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("traces-%d", rep))
		harness.ResetCaches()
		harness.SetTraceCacheDir(dir)
		// The old inputs go before the new ones are made, so a set-up
		// never holds two copies.
		mixes, specs = nil, nil
		runtime.GC()
		host := readHostCPU()
		start := time.Now()
		m, p, err := w.prepare(ctx, dir)
		if err != nil {
			return fmt.Errorf("prepare inputs: %w", err)
		}
		mixes = m
		specs = simSpecs(mixes, w.cache, w.scale, w.pfs)
		if recs == nil {
			recs = make([]specRecord, len(specs))
			order = opOrder(cfg.seed, len(specs))
		}
		// The warm-up operation: the first simulation in a process runs
		// markedly slower than the rest, so it is never timed. It runs the
		// first spec, whose base workloads and prefetcher are the same at
		// every seed, so that set-up time does not follow the seed.
		if err := runOp(ctx, specs, recs, 0, nil, out); err != nil {
			return err
		}
		end := time.Now()
		setups = append(setups, sample{ms: float64(end.Sub(start).Nanoseconds()) / 1e6, stolenMs: stolenMs(host)})
		spans.interval(0, 0, "setup", start, end)
		lt.genRecs += float64(p.genRecords)
		lt.genSec += p.genSec
		lt.fillSec = append(lt.fillSec, p.fillSec)
		return nil
	}
	for rep := 0; rep < warmSetups; rep++ {
		if err := setUp(rep); err != nil {
			return nil, err
		}
	}

	// Every spec's result goes into the harness's persistent result
	// store before the clock starts, for the reads between rounds.
	if !cfg.trace {
		if err := storeAll(ctx, cfg, specs, recs, out); err != nil {
			return nil, err
		}
	}

	// The timed phase: rounds over every spec in seed order until the time
	// is up, each followed by a burst of stored-result reads. In a traced
	// run odd rounds are traced, so traced and untraced operations
	// interleave under the same host conditions.
	var (
		ms0, ms1    runtime.MemStats
		jobs, reads []sample
		rss         float64
	)
	readRNG := drawRNG(cfg.seed, 6)
	ph := newPhase(cfg)
	op := 0
	for round, rep := 0, warmSetups; ; round++ {
		traced := cfg.trace && round%2 == 1
		for _, i := range order {
			op++
			var acc *pfTimes
			if traced {
				acc = &pfTimes{}
			}
			// Every operation starts from a collected heap, so none pays
			// for the garbage of the one before.
			runtime.GC()
			if cfg.trace {
				runtime.ReadMemStats(&ms0)
			}
			host := readHostCPU()
			start := time.Now()
			if err := runOp(ctx, specs, recs, i, acc, out); err != nil {
				return nil, err
			}
			end := time.Now()
			sec := end.Sub(start).Seconds()
			if !traced {
				recs[i].plain = append(recs[i].plain, sec)
				jobs = append(jobs, sample{ms: sec * 1e3, group: i, stolenMs: stolenMs(host)})
				if len(jobs) == minJobs {
					var err error
					if rss, err = peakRSSMB(); err != nil {
						return nil, err
					}
				}
				if cfg.trace {
					runtime.ReadMemStats(&ms1)
					lt.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
					lt.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
					lt.gcs += float64(ms1.NumGC - ms0.NumGC)
				}
				continue
			}
			recs[i].traced = append(recs[i].traced, sec)
			id := spans.interval(op, 0, "harness.Run "+specName(specs[i]), start, end)
			spans.total(op, id, "core.train", acc.core.ns, acc.core.trains+acc.core.fills)
			spans.total(op, id, "prefetch.train", acc.prefetch.ns, acc.prefetch.trains+acc.prefetch.fills)
			lt.ops++
			lt.opNs += float64(end.Sub(start).Nanoseconds())
			lt.kinstr += float64(recs[i].instr) / 1e3
			lt.core.add(acc.core)
			lt.prefetch.add(acc.prefetch)
		}
		if !cfg.trace {
			rs, err := readStored(ctx, readRNG, specs, recs, out)
			if err != nil {
				return nil, err
			}
			reads = append(reads, rs...)
		}
		if ph.setupDue() {
			if err := setUp(rep); err != nil {
				return nil, err
			}
			rep++
		}
		rounds := round + 1
		if cfg.trace {
			rounds = round/2 + 1
		}
		// The quieter half of the samples must still fill the percentiles.
		if ph.done(rounds >= minRounds && (cfg.trace || (len(jobs) >= 2*minJobs && len(reads) >= 2*minReads))) {
			break
		}
	}
	lt.plainOps = len(jobs)
	hit1, lookup1 := traceCacheCounts()
	lt.cacheHits, lt.cacheLookups = hit1-hit0, lookup1-lookup0

	// After the clock stops: one spec per seed must give the same result
	// through the other trace-delivery path.
	last := order[len(order)-1]
	alt, err := harness.Run(ctx, w.equivalent(specs[last]))
	if err != nil {
		return nil, fmt.Errorf("delivery-equivalence run: %w", err)
	}
	out.check(sameResult(alt, *recs[last].ref), "%s: streamed and materialized delivery differ", specName(specs[last]))

	if cfg.trace {
		if w.scale.StreamChunk > 0 {
			if lt.drainRecs, lt.drainSec, err = drainRate(ctx, dir, mixes, w.scale); err != nil {
				return nil, err
			}
			lt.genRecs, lt.genSec = genRate(mixes, w.scale)
		}
		simLayers(out, specs, recs, lt)
		return out, spans.write(cfg.spanDir, cfg.name, cfg.seed)
	}

	var instr float64
	for _, r := range recs {
		instr += float64(r.instr) / float64(len(recs))
	}
	if rss == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	sp, over := quality(specs, recs, len(w.pfs))
	return out, out.setEndToEnd(e2e{
		jobs: jobs, reads: reads, instr: instr,
		speedup: sp, over: over, setups: setups, rssMB: rss,
	})
}

func (b *busy) add(o busy) {
	b.ns += o.ns
	b.trains += o.trains
	b.fills += o.fills
}

// runOp runs spec i once, with its prefetchers timed when acc is non-nil,
// and checks the result against the spec's first one.
func runOp(ctx context.Context, specs []harness.RunSpec, recs []specRecord, i int, acc *pfTimes, out *outcome) error {
	spec := specs[i]
	if acc != nil {
		spec.PF = timed(spec.PF, acc)
	}
	in0 := harness.InstructionsRetired()
	res, err := harness.Run(ctx, spec)
	if err != nil {
		return fmt.Errorf("simulate %s: %w", specName(spec), err)
	}
	instr := harness.InstructionsRetired() - in0
	recs[i].record(res, acc.pythiaOr(res.PFs), instr, fmt.Sprintf("run (traced %v)", acc != nil), out)
	return nil
}

// record checks one result of the spec against its first, or makes it the
// first. Pythia's decision counts come from the first run that hands over
// its live agents in pys; a stored result has none, and passes nil.
func (r *specRecord) record(res harness.RunResult, pys []*core.Pythia, instr int64, what string, out *outcome) {
	if !r.counted && pys != nil {
		for _, py := range pys {
			s := py.Stats()
			r.demands += s.Demands
			r.taken += s.PrefetchTaken
		}
		r.counted = true
	}
	// The live prefetchers hold the whole learned state; keep only stats.
	res.PFs = nil
	if r.ref == nil {
		r.ref, r.instr = &res, instr
		return
	}
	out.check(sameResult(res, *r.ref), "%s: %s differs from the spec's first result", res.Name, what)
	out.check(instr == r.instr, "%s: %s simulated %d instructions, the first %d", res.Name, what, instr, r.instr)
}

// pythiaOr returns the Pythia agents a timed run saw, or, untimed, those
// among the run's live prefetchers.
func (acc *pfTimes) pythiaOr(pfs []prefetch.Prefetcher) []*core.Pythia {
	out := []*core.Pythia{}
	if acc != nil {
		return append(out, acc.pythia...)
	}
	for _, p := range pfs {
		if py, ok := p.(*core.Pythia); ok {
			out = append(out, py)
		}
	}
	return out
}

// sameResult compares two results' simulated statistics bit for bit.
func sameResult(a, b harness.RunResult) bool {
	a.PFs, b.PFs = nil, nil
	return reflect.DeepEqual(a, b)
}

func specName(s harness.RunSpec) string { return s.Mix.Name + "/" + s.PF.Name }

// simRate is the run's simulation rate in Minstr/s: the instructions of
// one pass over every spec divided by the sum of the per-spec median
// operation times.
func simRate(recs []specRecord, traced bool) float64 {
	var instr, sec float64
	for _, r := range recs {
		xs := r.plain
		if traced {
			xs = r.traced
		}
		if len(xs) == 0 {
			continue
		}
		instr += float64(r.instr)
		sec += median(xs)
	}
	return ratio(instr/1e6, sec)
}

// quality returns the geometric-mean speedup of every prefetched spec over
// its mix's baseline, and the overprediction of all prefetched specs
// together. Both are simulated, so they repeat exactly for a seed.
func quality(specs []harness.RunSpec, recs []specRecord, npf int) (speedup, over float64) {
	var sps []float64
	var baseReads, pfReads int64
	for i := range specs {
		if i%npf == 0 {
			continue
		}
		base, run := *recs[i-i%npf].ref, *recs[i].ref
		sps = append(sps, harness.Speedup(run, base))
		baseReads += base.SumDRAMReads()
		pfReads += run.SumDRAMReads()
	}
	return geomean(sps), stats.Overprediction(baseReads, pfReads)
}

// storeAll puts every spec's result into the harness's persistent result
// store, simulating each spec through harness.RunCached.
func storeAll(ctx context.Context, cfg runConfig, specs []harness.RunSpec, recs []specRecord, out *outcome) error {
	harness.SetResultStore(filepath.Join(cfg.dir, "results"))
	for i, spec := range specs {
		in0 := harness.InstructionsRetired()
		res, err := harness.RunCached(ctx, spec)
		if err != nil {
			return fmt.Errorf("store %s: %w", specName(spec), err)
		}
		recs[i].record(res, nil, harness.InstructionsRetired()-in0, "stored run", out)
	}
	return nil
}

// readStored reads a burst of results back through harness.RunCached with
// the in-memory memo dropped first, as a later process over a stored
// sweep does, and returns the read latencies in milliseconds. Reads must
// simulate nothing.
func readStored(ctx context.Context, rng *rand.Rand, specs []harness.RunSpec, recs []specRecord, out *outcome) ([]sample, error) {
	sims0 := harness.SimCount()
	// The burst starts from a collected heap, as every operation does.
	runtime.GC()
	host := readHostCPU()
	xs := make([]sample, 0, readsPerRound)
	for k := 0; k < readsPerRound; k++ {
		i := rng.Intn(len(specs))
		harness.ResetCaches()
		start := time.Now()
		res, err := harness.RunCached(ctx, specs[i])
		xs = append(xs, sample{ms: float64(time.Since(start).Nanoseconds()) / 1e6})
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", specName(specs[i]), err)
		}
		out.check(sameResult(res, *recs[i].ref), "%s: read result differs from the first run", specName(specs[i]))
	}
	steal := stolenMs(host) / float64(len(xs))
	for k := range xs {
		xs[k].stolenMs = steal
	}
	out.check(harness.SimCount() == sims0, "reads simulated %d times", harness.SimCount()-sims0)
	return xs, nil
}

// traceCacheCounts reads the process-wide trace-cache hit and lookup
// counters.
func traceCacheCounts() (hits, lookups float64) {
	h, _ := obs.Default().Value("pythia_store_hits_total", obs.L("store", "trace"))
	m, _ := obs.Default().Value("pythia_store_misses_total", obs.L("store", "trace"))
	return h, h + m
}

// drainRate drains every distinct trace of mixes from the trace cache at
// dir through the chunk pipeline alone, with no simulation consuming it.
func drainRate(ctx context.Context, dir string, mixes []trace.Mix, sc harness.Scale) (records, sec float64, err error) {
	c := stream.NewCache(dir)
	for _, w := range distinct(mixes) {
		src, err := c.Source(ctx, w, sc.TraceLen, sc.StreamChunk)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		r, err := src.Open()
		if err != nil {
			return 0, 0, err
		}
		cr, ok := r.(trace.ChunkReader)
		if !ok {
			r.Close()
			return 0, 0, fmt.Errorf("stream reader for %s delivers no chunks", w.Name)
		}
		for {
			ch, ok := cr.NextChunk()
			if !ok {
				break
			}
			records += float64(ch.Len())
		}
		err = r.Err()
		r.Close()
		sec += time.Since(start).Seconds()
		if err != nil {
			return 0, 0, fmt.Errorf("drain %s: %w", w.Name, err)
		}
	}
	return records, sec, nil
}

// genRate generates every distinct trace of mixes once more, in chunks,
// without encoding or writing it: the generator's share of a cache fill.
func genRate(mixes []trace.Mix, sc harness.Scale) (records, sec float64) {
	buf := trace.NewChunk(sc.StreamChunk)
	for _, w := range distinct(mixes) {
		start := time.Now()
		it := w.Iter(sc.TraceLen)
		for {
			buf.Reset()
			n := trace.FillChunk(it, buf, sc.StreamChunk)
			if n == 0 {
				break
			}
			records += float64(n)
		}
		sec += time.Since(start).Seconds()
	}
	return records, sec
}
