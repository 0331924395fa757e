// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, times only calls into the simulator's and
// the service's public functions, checks that every output is correct,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload sim-pythia-1c --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// interleaves traced and untraced operations and prints the per-layer
// metrics, the tracing overhead among them. README.md explains the
// workloads, the metrics and the noise they were sized against.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pythia/internal/harness"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is this run's private scratch directory (trace cache, stores,
	// journal); it is removed when the run ends.
	dir string
	// spanDir receives the traced run's spans.
	spanDir string
	name    string
}

// outcome is what a workload reports back: the correctness tally and
// every metric it measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a declared metric; its unit comes from the declaration.
func (o *outcome) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// e2e is what every workload measures for the end-to-end metrics.
type e2e struct {
	// jobs and reads are the untraced operations' samples.
	jobs, reads []sample
	// instr is the mean simulated instructions of one job.
	instr float64
	// speedup and over are simulated, so they repeat exactly for a seed.
	speedup, over float64
	// setups are the run's repeated set-ups, timed as operations are.
	setups []sample
	// rssMB is the peak resident set over set-up and the first minJobs
	// jobs: a fixed amount of work, however fast the host runs it.
	rssMB float64
}

// setEndToEnd derives the end-to-end metrics from the samples the host
// disturbed least. A tail percentile with too few samples beyond it is an
// error, not a number.
func (o *outcome) setEndToEnd(e e2e) error {
	jobs, reads, setups := quieter(e.jobs), quieter(e.reads), quieter(e.setups)
	jobP50, jobP90, err := latency(jobs, 90)
	if err != nil {
		return fmt.Errorf("job latency: %w", err)
	}
	readP50, readP90, err := latency(reads, 90)
	if err != nil {
		return fmt.Errorf("read latency: %w", err)
	}
	// The typical job seen as a rate: Minstr/s is instructions per ms / 1e3.
	o.set("sim_minstr_per_s", ratio(e.instr/1e3, jobP50))
	o.set("pf_speedup", e.speedup)
	o.set("pf_overprediction", e.over)
	o.set("job_p50_ms", jobP50)
	o.set("job_p90_ms", jobP90)
	o.set("read_p50_ms", readP50)
	o.set("read_p90_ms", readP90)
	setupMs := make([]float64, len(setups))
	for i, x := range setups {
		setupMs[i] = x.ms
	}
	o.set("setup_s", median(setupMs)/1e3)
	o.set("peak_rss_mb", e.rssMB)
	var stolen float64
	for _, x := range e.jobs {
		stolen += x.stolenMs
	}
	fmt.Fprintf(os.Stderr, "  samples: %d of %d jobs, %d of %d reads and %d of %d set-ups used (%.0f ms stolen from all jobs)\n",
		len(jobs), len(e.jobs), len(reads), len(e.reads), len(setups), len(e.setups), stolen)
	return nil
}

// check counts one attempted correctness check, and a failure when ok is
// false, describing the failure on standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"sim-pythia-1c":     runSimPythia1C,
	"sim-zoo-4c-stream": runSimZoo4C,
	"serve-journal":     runServeJournal,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (sim-pythia-1c, sim-zoo-4c-stream, serve-journal)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 10, "how long the timed phase runs")
		traced  = flag.Int("trace", 0, "1 takes the per-layer metrics from a traced run; 0 the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch data and spans")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(filepath.Join(*workdir, "runs")), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *traced == 1,
		dir: dir, spanDir: filepath.Join(*workdir, "spans"), name: *name,
	}
	// One simulation at a time: the host has two CPUs, and the second is
	// left to the stream producers and the HTTP server.
	harness.SetWorkers(1)
	host0 := readHostCPU()
	out, err := run(context.Background(), cfg)
	// Point the process-wide stores back at their defaults before the
	// scratch directory goes, so nothing can write there afterwards.
	harness.SetTraceCacheDir("")
	harness.SetResultStore("")
	harness.SetPolicyStore("")
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host1 := readHostCPU()
	if cfg.trace {
		out.set("host.steal_share", host1.stealShare(host0))
		out.set("host.cpu_ticks", host1.total-host0.total)
	} else {
		fmt.Fprintf(os.Stderr, "  host steal share: %.4f\n", host1.stealShare(host0))
	}
	if err := out.complete(cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(out)
	if out.failed > 0 {
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// report prints the metrics as a table on standard error and as the
// result object on the last line of standard output.
func report(o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			o.check(false, "metric %s is %v", n, m.Value)
			m.Value = 0
			o.metrics[n] = m
		}
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  checks: %d attempted, %d failed\n", o.attempted, o.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// A run sets up setupReps times from scratch, and setup_s is the median
// of the set-ups the host disturbed least. The first warmSetups come
// before the timed phase and warm the process; the rest are spread evenly
// over the phase, so the set-ups meet the same host as the operations do:
// the host's speed drifts over seconds, and set-ups made in a row measure
// only one moment of it.
const (
	setupReps  = 15
	warmSetups = 3
)

// phase decides when a timed phase ends: after --seconds, once it has the
// samples its percentiles need and has run its set-ups, and in any case
// after hardStop. It also says when the next set-up is due.
type phase struct {
	end, stop time.Time
	setups    []time.Time
}

// hardStop bounds a timed phase well inside the 180 s a run may take.
const hardStop = 120 * time.Second

func newPhase(cfg runConfig) *phase {
	now := time.Now()
	d := time.Duration(cfg.seconds * float64(time.Second))
	p := &phase{end: now.Add(d), stop: now.Add(hardStop)}
	n := setupReps - warmSetups
	for k := 1; k <= n; k++ {
		p.setups = append(p.setups, now.Add(d*time.Duration(k)/time.Duration(n+1)))
	}
	return p
}

// setupDue reports whether a set-up is due, and if so takes it off the
// schedule.
func (p *phase) setupDue() bool {
	if len(p.setups) == 0 || time.Now().Before(p.setups[0]) {
		return false
	}
	p.setups = p.setups[1:]
	return true
}

func (p *phase) done(enough bool) bool {
	now := time.Now()
	return (enough && len(p.setups) == 0 && now.After(p.end)) || now.After(p.stop)
}
