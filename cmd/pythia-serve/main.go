// Command pythia-serve runs the experiment harness as a long-lived HTTP
// service backed by the persistent result store: launch experiments,
// stream their progress, cancel runs, and fetch cached tables without
// re-simulating.
//
// Usage:
//
//	pythia-serve -addr :8080
//	pythia-serve -addr :8080 -results /var/lib/pythia/results -queue 32 -parallel 8
//	pythia-serve -addr :8080 -journal /var/lib/pythia/journal
//
// API (v1; see DESIGN.md "API v1" and the typed client in internal/api):
//
//	GET    /api/v1/experiments            list experiments (paper + extended)
//	POST   /api/v1/runs                   {"experiment":"fig9a","scale":"quick"}
//	                                      or a policy-training job:
//	                                      {"train":{"workload":"CC-100B",
//	                                      "config":"pythia"},"scale":"default"}
//	GET    /api/v1/runs                   list jobs
//	GET    /api/v1/runs/{id}              job status + result
//	DELETE /api/v1/runs/{id}              cancel a queued or running job; its
//	                                      SSE stream ends with a terminal
//	                                      "canceled" event and in-flight
//	                                      simulations abort at the next
//	                                      chunk boundary
//	GET    /api/v1/runs/{id}/events       SSE progress stream (full replay)
//	GET    /api/v1/results/{exp}?scale=s  fetch a stored result directly
//	GET    /api/v1/policies               list trained policies (metadata)
//	GET    /api/v1/policies/{id}          one policy's envelope metadata
//	GET    /api/v1/policies/{id}/snapshot download the raw PYQV01 Q-table
//	GET    /healthz                       service + store health (unversioned)
//	GET    /metrics                       Prometheus text exposition (queue
//	                                      depth, job latency histograms,
//	                                      store hit/miss, retry/breaker
//	                                      counters, instructions/sec)
//
// Routes answer only under /api/v1 (the unversioned legacy aliases
// completed their deprecation window and now 404). Any other path, or a
// known path under the wrong method, answers 404 not_found. Every
// non-2xx response is the api.Error JSON envelope ({"error":{"code",
// "message","retryable","retry_after_seconds"}}); 503s additionally set
// Retry-After.
//
// With -pprof, the net/http/pprof profiling endpoints are mounted under
// /debug/pprof/ (see the EXPERIMENTS.md profiling recipe). Structured
// logs (job admission, dispatch, retries, terminal states) go to stderr;
// -log-json switches them to JSON, -log-level debug|info|warn|error
// filters them.
//
// Training jobs flow through the same worker and SSE machinery
// as experiments; a repeat training request for a policy already in the
// store completes with zero simulations (the job's sims counter proves
// it), and warm-started evaluations reuse stored policies the same way.
//
// Repeat requests for an (experiment, scale) pair already in the store
// are answered with zero additional simulation work; the store also feeds
// harness.RunCached, so even a fresh experiment reuses any individual
// simulations earlier runs persisted.
//
// Failures stay scoped to one job: the simulation stack reports errors as
// values (a corrupted trace-cache file fails that run with a terminal
// "error" event while the process keeps serving). SIGINT/SIGTERM trigger
// a graceful shutdown — admission closes, queued jobs drain, and after
// the grace period whatever is still running is canceled.
//
// Every accepted job is persisted to a job journal, and one in-process
// worker runs the queued jobs in admission order, one at a time, each
// fanning its simulations out over -parallel CPUs. The server holds an
// exclusive lock on the journal directory while it runs: a second
// pythia-serve over the same -journal exits with status 2 and an error
// naming the directory. With -journal set the journal survives the
// process: the kernel drops a killed server's lock, and a server
// restarted after a kill or crash runs the dead process's queued and
// running jobs at once — at-least-once execution, which the
// content-addressed stores make idempotent — and still answers for the
// jobs that had finished. Without -journal the journal is a private
// temporary directory removed at shutdown.
// Transient store failures are retried with jittered backoff; a
// persistently failing store opens a circuit breaker that sheds new
// simulation jobs with 503 + Retry-After while store hits keep being
// served (degraded read-only mode, visible in /healthz).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("results", results.DefaultDir(), "persistent result store directory")
		polDir   = flag.String("policies", policy.DefaultDir(), "trained-policy store directory (empty disables the policy endpoints)")
		queue    = flag.Int("queue", 16, "max queued (admitted but unstarted) jobs")
		parallel = flag.Int("parallel", 0, "max concurrent simulations in this process, across all its jobs (0 = all CPUs)")
		grace    = flag.Duration("grace", 30*time.Second, "graceful-shutdown budget for draining queued jobs before canceling them")
		journal  = flag.String("journal", "", "job-journal directory; accepted jobs survive crashes and are requeued on restart (empty: a private temporary journal removed at shutdown)")
		withProf = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling is opt-in; see EXPERIMENTS.md)")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	logger := obs.NewLogger(*logJSON, obs.ParseLevel(*logLevel))
	harness.SetWorkers(*parallel)
	// One store serves both layers of reuse: whole experiment tables for
	// the service, and individual simulations for harness.RunCached. The
	// policy store is wired into the harness too, so warm-start
	// experiments (ext-generalization, ext-warmstart) reuse trained
	// policies across jobs and restarts.
	store := harness.SetResultStore(*storeDir)
	pols := harness.SetPolicyStore(*polDir)

	srv, err := serve.New(serve.Config{Store: store, Policies: pols, QueueDepth: *queue, JournalDir: *journal, Logger: logger})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if n := srv.Recovered(); n > 0 {
		fmt.Printf("recovered %d journaled job(s) from %s\n", n, *journal)
	}

	handler := srv.Handler()
	if *withProf {
		// Compose the API with the profiling endpoints: pprof stays opt-in
		// because it exposes goroutine dumps and heap contents.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	polDesc := "disabled"
	if pols != nil {
		polDesc = pols.Dir()
	}
	fmt.Printf("pythia-serve listening on %s (store %s, policies %s, queue %d, %d workers)\n",
		*addr, store.Dir(), polDesc, *queue, harness.Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("received %v, shutting down (drain budget %v; signal again to abort)\n", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		go func() {
			// A second signal skips the drain: cancel everything now.
			<-sig
			cancel()
		}()
		// Drain the job queue and wind down HTTP concurrently, both under
		// the same grace context: SSE streams of running jobs only end when
		// their jobs turn terminal, which is exactly what the drain (or its
		// abort) produces — sequencing them would deadlock the grace budget.
		httpDone := make(chan struct{})
		go func() {
			defer close(httpDone)
			httpSrv.Shutdown(ctx)
		}()
		srv.Shutdown(ctx)
		<-httpDone
		cancel()
	}
}
