package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"pythia/internal/api"
	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// readsPerJob is how many reads follow each job: the recorded traffic mix
// of the repository, pythia-load's default (read=0.6, simulate=0.2), sends
// three result reads per experiment launch. A run continues until it has
// 2 × minReads reads, which takes about 670 jobs.
const readsPerJob = 3

// qualityJobs is how many of a run's first jobs the simulated metrics
// cover; every run completes more, so the set is fixed by the seed alone.
const qualityJobs = 20

// seedJobs is how many jobs seed each set-up. With warmSetups set-ups
// before the timed phase, the process is warm when it starts: the first
// timed jobs take as long as the later ones.
const seedJobs = 5

// maxFailures ends a serve run early once this many checks have failed.
const maxFailures = 20

// service is an in-process pythia-serve on a loopback port, wired as the
// pythia-serve command wires it: a result store shared with the harness,
// a policy store and a durable job journal, all in a fresh directory.
type service struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	client *api.Client
	store  *results.Store
	// stores are every handle the harness has had on the result store:
	// the service's own, then one per rebind.
	stores []*results.Store
}

func startService(dir string) (*service, error) {
	harness.SetTraceCacheDir(filepath.Join(dir, "traces"))
	store := harness.SetResultStore(filepath.Join(dir, "results"))
	pols := harness.SetPolicyStore(filepath.Join(dir, "policies"))
	srv, err := serve.New(serve.Config{
		Store: store, Policies: pols, JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		dir: dir, stores: []*results.Store{store},
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		// No retries: a shed or failed request is counted, not hidden.
		client: api.NewClient("http://"+ln.Addr().String(), api.WithRetries(0)),
		store:  store,
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// rebind points the harness's process-wide stores back at the service's
// directories, after another service has run in the process.
func (s *service) rebind() {
	harness.SetTraceCacheDir(filepath.Join(s.dir, "traces"))
	s.stores = append(s.stores, harness.SetResultStore(filepath.Join(s.dir, "results")))
	harness.SetPolicyStore(filepath.Join(s.dir, "policies"))
}

// storeCounts sums the result-store counters over every handle.
func (s *service) storeCounts() (hits, misses, writes int64) {
	for _, st := range s.stores {
		hits, misses, writes = hits+st.Hits(), misses+st.Misses(), writes+st.Writes()
	}
	return hits, misses, writes
}

// close stops the HTTP server and the job executor and waits for both.
func (s *service) close() {
	s.hs.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

// jobRun is one launched job as the client saw it.
type jobRun struct {
	scale              string
	final              api.Job
	launchMs, totalMs  float64
	instr              int64
	launched, finished time.Time
}

// job launches one experiment job and follows its event stream to the
// terminal event, as the CLI and pythia-train -server do.
func (s *service) job(ctx context.Context, scale string) (jobRun, error) {
	r := jobRun{scale: scale}
	in0 := harness.InstructionsRetired()
	r.launched = time.Now()
	j, err := s.client.Launch(ctx, api.LaunchRequest{Experiment: serveExperiment, Scale: scale})
	r.launchMs = msSince(r.launched)
	if err != nil {
		return r, fmt.Errorf("launch %s: %w", scale, err)
	}
	r.final, err = s.client.Events(ctx, j.ID, nil)
	r.finished = time.Now()
	r.totalMs = float64(r.finished.Sub(r.launched).Nanoseconds()) / 1e6
	r.instr = harness.InstructionsRetired() - in0
	if err != nil {
		return r, fmt.Errorf("follow %s: %w", j.ID, err)
	}
	return r, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// serveLayers accumulates a traced serve run's per-job stage times.
type serveLayers struct {
	launch, queue, simulate, persist, overhead []float64
}

func runServeJournal(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	spans := newSpanLog(cfg.trace)
	in := newServeInputs(cfg.seed)

	// A set-up boots a service in fresh directories, with the harness's
	// memoized traces and results dropped, and seeds it: jobs on scales no
	// timed job uses, each followed by a read of its result.
	var setups []sample
	setUp := func(rep int) (*service, error) {
		harness.ResetCaches()
		runtime.GC()
		host := readHostCPU()
		start := time.Now()
		s, err := startService(filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", rep)))
		if err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
		for k := 0; k < seedJobs; k++ {
			warm, err := s.job(ctx, in.scale(-1-rep*seedJobs-k))
			if err == nil {
				_, err = s.client.Result(ctx, serveExperiment, warm.scale)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("seeding job: %w", err)
			}
		}
		end := time.Now()
		setups = append(setups, sample{ms: float64(end.Sub(start).Nanoseconds()) / 1e6, stolenMs: stolenMs(host)})
		spans.interval(0, 0, "setup", start, end)
		return s, nil
	}
	// The timed cycles run against the last of the warm-up set-ups; the
	// set-ups spread over the timed phase run beside it and are closed.
	var svc *service
	for rep := 0; rep < warmSetups; rep++ {
		if svc != nil {
			svc.close()
		}
		var err error
		if svc, err = setUp(rep); err != nil {
			return nil, err
		}
	}
	defer svc.close()

	h0, err := svc.client.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	hits0, miss0, writes0 := svc.storeCounts()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// The timed phase: one client in a closed loop. Each cycle writes
	// (a job that must simulate) and then reads stored results, Zipf-drawn
	// over this run's jobs. In a traced run odd cycles are traced.
	var (
		jobs         []jobRun
		plain, reads []sample
		tracedMs     []float64
		plainInstr   float64
		rendered     []string
		jobSims      int64
		layers       serveLayers
		rss          float64
		forcedGCs    uint32
		setupSims    int64
	)
	ph := newPhase(cfg)
	op := 0
	for cycle, rep := 0, warmSetups; ; cycle++ {
		traced := cfg.trace && cycle%2 == 1
		op++
		// Every job starts from a collected heap, as every simulation
		// operation does.
		runtime.GC()
		forcedGCs++
		host := readHostCPU()
		r, err := svc.job(ctx, in.scale(cycle))
		steal := stolenMs(host)
		out.check(err == nil, "job %d: %v", cycle, err)
		if err == nil {
			f := r.final
			jobSims += f.Sims
			ok := f.Status == api.StatusDone && f.Sims > 0 && !f.Cached
			out.check(ok, "job %s ended %s (sims %d, cached %v): %s", f.ID, f.Status, f.Sims, f.Cached, f.Error)
			if ok {
				jobs = append(jobs, r)
				rendered = append(rendered, f.Rendered)
				if traced {
					tracedMs = append(tracedMs, r.totalMs)
					if err := traceJob(ctx, svc, r, op, spans, &layers); err != nil {
						out.check(false, "job %s status: %v", f.ID, err)
					}
				} else {
					plain = append(plain, sample{ms: r.totalMs, stolenMs: steal})
					plainInstr += float64(r.instr)
					if len(plain) == minJobs {
						if rss, err = peakRSSMB(); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		if len(jobs) > 0 {
			// The burst starts from a collected heap, so reads do not pay
			// for the job's garbage.
			runtime.GC()
			forcedGCs++
			burst := time.Now()
			host := readHostCPU()
			var xs []sample
			for k := 0; k < readsPerJob; k++ {
				i := in.next(len(jobs))
				start := time.Now()
				res, err := svc.client.Result(ctx, serveExperiment, jobs[i].scale)
				ms := msSince(start)
				ok := err == nil && res.Rendered == rendered[i] && res.Result.Sims == jobs[i].final.Sims
				out.check(ok, "read of %s: %v", jobs[i].scale, err)
				if ok {
					xs = append(xs, sample{ms: ms})
				}
			}
			steal := stolenMs(host) / float64(max(len(xs), 1))
			for k := range xs {
				xs[k].stolenMs = steal
			}
			if !traced {
				reads = append(reads, xs...)
			}
			spans.interval(op, 0, "read burst", burst, time.Now())
		}
		if ph.setupDue() {
			sims0 := harness.SimCount()
			s, err := setUp(rep)
			if err != nil {
				return nil, err
			}
			s.close()
			rep++
			setupSims += harness.SimCount() - sims0
			svc.rebind()
		}
		// The quieter half of the samples must still fill the percentiles.
		if out.failed > maxFailures || ph.done(cfg.trace || (len(plain) >= 2*minJobs && len(reads) >= 2*minReads)) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	h1, err := svc.client.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	// Jobs alone simulate: every read, and every status fetch of a traced
	// run, must add no simulation. The count is the process's, so the
	// set-ups' seeding jobs are taken out.
	sims := h1.Sims - h0.Sims - setupSims
	out.check(sims == jobSims, "healthz counted %d sims, jobs reported %d", sims, jobSims)

	if len(jobs) < qualityJobs {
		return nil, fmt.Errorf("only %d jobs completed; the simulated metrics need %d", len(jobs), qualityJobs)
	}
	sp, over, err := jobQuality(ctx, jobs[:qualityJobs], out)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		if rss == 0 {
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		return out, out.setEndToEnd(e2e{
			jobs: plain, reads: reads, instr: plainInstr / float64(len(plain)),
			speedup: sp, over: over, setups: setups, rssMB: rss,
		})
	}

	n := float64(len(jobs))
	cycles := float64(op)
	out.set("serve.jobs", n)
	out.set("serve.traced_jobs", float64(len(tracedMs)))
	out.set("serve.launch_ms", median(layers.launch))
	out.set("serve.queue_ms", median(layers.queue))
	out.set("serve.simulate_ms", median(layers.simulate))
	out.set("serve.persist_ms", median(layers.persist))
	out.set("serve.overhead_ms", median(layers.overhead))
	out.set("harness.sims_per_job", float64(jobSims)/n)
	hits1, miss1, writes1 := svc.storeCounts()
	out.set("results.writes_per_job", float64(writes1-writes0)/n)
	hits, lookups := float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)
	out.set("results.lookups", lookups)
	out.set("results.hit_ratio", ratio(hits, lookups))
	getUs, err := storeGets(svc.store, jobs)
	if err != nil {
		return nil, err
	}
	out.set("results.get_samples", float64(len(getUs)))
	out.set("results.get_us", median(getUs))
	out.set("runtime.ops", cycles)
	out.set("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/cycles)
	out.set("runtime.mallocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/cycles)
	// The collections forced before each read burst are not the jobs'.
	out.set("runtime.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC-forcedGCs)/cycles)
	// Every job simulates about the same instructions, so the traced and
	// untraced simulation rates differ by the inverse of their latencies.
	var plainMs []float64
	for _, x := range plain {
		plainMs = append(plainMs, x.ms)
	}
	out.set("tracing.job_p50_ratio", ratio(median(tracedMs), median(plainMs)))
	out.set("tracing.sim_rate_ratio", ratio(median(plainMs), median(tracedMs)))
	return out, spans.write(cfg.spanDir, cfg.name, cfg.seed)
}

// traceJob fetches a finished job's status and turns its stage timeline
// into spans and per-stage times.
func traceJob(ctx context.Context, svc *service, r jobRun, op int, spans *spanLog, l *serveLayers) error {
	j, err := svc.client.Job(ctx, r.final.ID)
	if err != nil {
		return err
	}
	if len(j.Timeline) == 0 {
		return errors.New("no timeline")
	}
	root := spans.interval(op, 0, "job "+j.ID, r.launched, r.finished)
	spans.interval(op, root, "launch", r.launched, r.launched.Add(time.Duration(r.launchMs*1e6)))
	stage := map[string]float64{}
	for _, st := range j.Timeline {
		d := time.Duration(st.DurationSeconds * 1e9)
		spans.interval(op, root, st.Stage, st.At, st.At.Add(d))
		stage[st.Stage] += st.DurationSeconds * 1e3
	}
	sim := stage["streaming"] + stage["simulating"]
	l.launch = append(l.launch, r.launchMs)
	l.queue = append(l.queue, stage["queued"])
	l.simulate = append(l.simulate, sim)
	l.persist = append(l.persist, stage["persisting"])
	l.overhead = append(l.overhead, r.totalMs-sim)
	return nil
}

// fig14PFs are the prefetchers a Fig. 14 job simulates, in table order.
func fig14PFs() []harness.PF {
	return []harness.PF{harness.Baseline(), harness.SPPPF(), harness.BingoPF(), harness.MLOPPF(),
		harness.BasicPythiaPF(), harness.PythiaPF(core.StrictConfig())}
}

// jobQuality reads back the simulations behind the given jobs through
// harness.RunCached, which the service shares, and derives the simulated
// metrics from them. The read-back must simulate nothing, and each
// served table's speedup column must match the results it came from.
func jobQuality(ctx context.Context, jobs []jobRun, out *outcome) (speedup, over float64, err error) {
	w, ok := trace.ByName("CC-100B")
	if !ok {
		return 0, 0, errors.New("no CC-100B workload")
	}
	mix := trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}
	sims0 := harness.SimCount()
	var sps []float64
	var baseReads, pfReads int64
	for _, j := range jobs {
		sc, err := harness.ScaleByName(j.scale)
		if err != nil {
			return 0, 0, err
		}
		var base harness.RunResult
		for k, pf := range fig14PFs() {
			res, err := harness.RunCached(ctx, harness.RunSpec{Mix: mix, CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: pf})
			if err != nil {
				return 0, 0, err
			}
			sp := 1.0
			if k == 0 {
				base = res
			} else {
				sp = harness.Speedup(res, base)
				sps = append(sps, sp)
				baseReads += base.SumDRAMReads()
				pfReads += res.SumDRAMReads()
			}
			rows := j.final.Result.Table.Rows
			ok := k < len(rows) && rows[k][0] == pf.Name && rows[k][len(rows[k])-1] == fmt.Sprintf("%.3f", sp)
			out.check(ok, "job %s: table row %d does not match %s speedup %.3f", j.final.ID, k, pf.Name, sp)
		}
	}
	out.check(harness.SimCount() == sims0, "reading back job results simulated %d times", harness.SimCount()-sims0)
	return geomean(sps), stats.Overprediction(baseReads, pfReads), nil
}

// storeGets times standalone results.Store.Get calls on the stored
// tables, the store's share of a read.
func storeGets(st *results.Store, jobs []jobRun) ([]float64, error) {
	var us []float64
	for k := 0; k < 200; k++ {
		j := jobs[k%len(jobs)]
		sc, err := harness.ScaleByName(j.scale)
		if err != nil {
			return nil, err
		}
		var p harness.ExperimentPayload
		start := time.Now()
		ok := st.Get(harness.ExperimentKey(serveExperiment, sc), &p)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if !ok {
			return nil, fmt.Errorf("stored table for %s is missing", j.scale)
		}
	}
	return us, nil
}
