// Package serve exposes the experiment harness as a long-lived HTTP
// service: the first step from batch reproduction toward a system that
// serves results to many concurrent consumers.
//
// Architecture: every admitted job is journaled, and one in-process
// worker goroutine runs the server's queued jobs in admission order, one
// experiment at a time. The server holds an exclusive lock on its
// journal directory while it runs, so a server restarted over the same
// journal knows that every open record is a dead process's and requeues
// it at once. Each experiment
// internally fans its simulations out over the harness worker pool
// (harness.SetWorkers), so the machine stays fully utilized while the
// queued-job bound — not goroutine count — bounds admitted work. Every
// completed experiment is persisted in a results.Store; a repeat request
// (same experiment, same scale, same generator version) is served from
// the store with zero additional simulation work, observable through the
// job's sims counter. Progress streams to clients over SSE with full
// event replay, so late subscribers see the whole history.
//
// Policy-training jobs flow through the same worker and SSE machinery: a
// POST with a "train" body trains a Pythia policy and persists it in the
// policy.Store, a repeat training request is a store hit with zero
// simulations (same sims-counter proof), and stored policies are listable
// and downloadable under /api/v1/policies.
//
// Failure and cancellation are first-class: the harness returns errors as
// values (a corrupted trace-cache file fails only the job that touched
// it, with a terminal "error" SSE event, while the service keeps serving),
// every job carries a context that DELETE /api/v1/runs/{id} cancels (terminal
// "canceled" event, in-flight simulations abort at the next chunk
// boundary and release their worker slots), and Shutdown drains the
// queued jobs before stopping.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/api"
	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/results"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the persistent result store (required).
	Store *results.Store
	// Policies is the trained-policy store backing the policy lifecycle
	// endpoints (/api/v1/policies, POST-able training jobs). Optional: when
	// nil those endpoints answer 503 and everything else works unchanged.
	Policies *policy.Store
	// QueueDepth bounds the number of jobs waiting to execute (admitted
	// but not yet taken by the worker); the default is 16. A full queue
	// rejects launches with 503 rather than queueing unboundedly.
	QueueDepth int
	// JobHistory bounds how many finished jobs are retained for listing
	// and late fetches (the default is 256), across restarts too: their
	// journal records are re-tracked at startup. Queued and running jobs
	// are never evicted; beyond the cap, the oldest finished jobs are
	// dropped at admission time, so server memory is bounded by admitted +
	// capped work, not by lifetime request count. Stored results are
	// unaffected — evicted tables remain fetchable via /api/v1/results.
	JobHistory int
	// ExtraScales registers additional named scales beyond the harness
	// presets (tests register tiny ones; deployments can pin custom
	// horizons).
	ExtraScales map[string]harness.Scale

	// JournalDir is the durable job journal: every accepted job is
	// persisted there (spec + state transitions), and New recovers it,
	// requeueing every non-terminal job. The Server locks the directory
	// until Shutdown; New fails on a journal another live process holds.
	// Empty means a private temporary journal that Shutdown removes: jobs
	// then survive nothing but the process. Custom scales in ExtraScales
	// must be re-registered for their journaled jobs to be recoverable.
	JournalDir string
	// BreakerCooldown is how long an open store circuit breaker (see
	// breakerThreshold) sheds write-needing work before letting a probe
	// through; default 15s.
	BreakerCooldown time.Duration

	// Logger receives structured job-lifecycle logs (admission, dispatch,
	// retries, terminal states, recovery) with job IDs on every record.
	// Nil discards them — tests and embedders that don't care stay quiet.
	Logger *slog.Logger
}

// defaults fills every unset knob with its documented default.
func (c *Config) defaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

// Server is the pythia-serve HTTP service.
type Server struct {
	cfg   Config
	store *results.Store
	wg    sync.WaitGroup

	// baseCtx parents every job context; baseCancel is the hard-stop
	// lever (Close, or Shutdown past its deadline).
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// drain tells the in-process worker to exit once it finds no job
	// waiting; closing is the shutdown signal.
	drain     chan struct{}
	drainOnce sync.Once
	closing   atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int64

	// journal is the durable job log; tempJournal marks a private one
	// (Config.JournalDir empty) that Shutdown removes. recovered counts
	// the jobs New re-tracked from it.
	journal     *journal
	tempJournal bool
	recovered   int

	// storeBrk and polBrk are the circuit breakers of result and policy
	// persistence: execution feeds them, admission sheds on them.
	storeBrk *breaker
	polBrk   *breaker
	// label names this process as the worker of the jobs it runs.
	label string
	// wake is the in-process worker's one-slot doorbell: admission rings
	// it, so the worker never polls while a job waits.
	wake chan struct{}

	log *slog.Logger

	started time.Time
}

// New builds a Server and starts its in-process worker. Callers own the
// HTTP listener (mount Handler) and must stop the server with Shutdown
// (drain) or Close (abort), which release the journal lock.
//
// New first locks and recovers the journal: the newest JobHistory
// terminal jobs are re-tracked as finished, and every non-terminal job
// is requeued as the worker's first candidates, ahead of new admissions.
// Re-execution is at-least-once but idempotent — results and policies
// are content-addressed and singleflight-guarded, so a recovered job
// that already persisted its result is a store hit with zero new
// simulations.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		store:    cfg.Store,
		drain:    make(chan struct{}),
		wake:     make(chan struct{}, 1),
		jobs:     make(map[string]*job),
		storeBrk: newBreaker("results", cfg.BreakerCooldown),
		polBrk:   newBreaker("policies", cfg.BreakerCooldown),
		label:    fmt.Sprintf("pid%d", os.Getpid()),
		log:      cfg.Logger,
		started:  time.Now().UTC(),
	}

	dir := cfg.JournalDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "pythia-journal-"); err != nil {
			return nil, fmt.Errorf("serve: private journal: %w", err)
		}
		s.tempJournal = true
	}
	jl, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	s.journal = jl
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	// A crash mid-WriteAtomic must not leave temp litter across
	// restarts: sweep all three stores now, not on their first write.
	s.store.Sweep()
	if cfg.Policies != nil {
		cfg.Policies.Sweep()
	}
	harness.SweepTraceCache()

	requeued := s.recoverJobs(jl.load())
	mRequeues.Add(int64(requeued))
	if s.recovered > 0 {
		mRecovered.Add(int64(s.recovered))
		s.log.Info("journal recovery complete", "recovered", s.recovered, "requeued", requeued)
	}
	s.startWorker()
	s.registerMetrics()
	return s, nil
}

// recoverJobs re-tracks the journal after a restart and returns how many
// jobs it requeued. The journal lock means no other process runs them,
// so every non-terminal job is rebuilt as queued (one whose spec no
// longer resolves fails visibly). The newest JobHistory terminal records
// are rebuilt as finished jobs, so a client still polling one gets its
// final state; older ones are removed, as pruneLocked would have.
func (s *Server) recoverJobs(recs []jobRecord) (requeued int) {
	terminal := 0
	for _, rec := range recs {
		if terminalStatus(rec.Status) {
			terminal++
		}
	}
	for _, rec := range recs {
		if n := jobIDNum(rec.ID); n > s.nextID {
			s.nextID = n
		}
		if terminalStatus(rec.Status) && terminal > s.cfg.JobHistory {
			terminal--
			s.journal.remove(rec.ID)
			continue
		}
		// Not yet visible to other goroutines, so publishing needs no lock.
		j, specErr := s.newJob(rec)
		if specErr != nil {
			j = s.placeholder(rec)
		}
		j.attempts = rec.Attempts
		j.created = rec.CreatedAt
		j.recovered = true
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		s.recovered++
		if terminalStatus(rec.Status) {
			var res *harness.ExperimentPayload
			var meta *policy.Meta
			if specErr == nil {
				res, meta = s.reloadArtifact(j, rec)
			}
			j.restore(rec, res, meta)
			continue
		}
		j.publish("status", j.viewLocked())
		if specErr != nil {
			j.finish(nil, false, fmt.Errorf("unrecoverable job spec: %s", specErr.Message))
		} else {
			requeued++
		}
	}
	return requeued
}

// reloadArtifact fetches a done job's artifact back from its store: an
// experiment's result by its key, a training job's policy by the ID its
// record names. A store miss gets none.
func (s *Server) reloadArtifact(j *job, rec jobRecord) (*harness.ExperimentPayload, *policy.Meta) {
	if rec.Status != StatusDone {
		return nil, nil
	}
	if j.kind == KindTrain {
		if s.cfg.Policies == nil {
			return nil, nil
		}
		if env, ok := s.cfg.Policies.Get(rec.PolicyID); ok {
			return nil, &env.Meta
		}
		return nil, nil
	}
	var res harness.ExperimentPayload
	if s.store.Get(harness.ExperimentKey(j.expID, j.scale), &res) {
		return &res, nil
	}
	return nil, nil
}

// waitingJobs lists the jobs waiting for the in-process worker, in
// admission order.
func (s *Server) waitingJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var open []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.waiting() {
			open = append(open, j)
		}
	}
	return open
}

// signal rings the in-process worker's doorbell without blocking; a
// ring already pending covers this one.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Shutdown gracefully stops the server: admission closes immediately
// (launches get 503), then the in-process worker runs every queued job
// before exiting. If ctx expires first, the drain turns into an abort —
// the base context is canceled, so the in-flight job ends "canceled" at
// its next chunk boundary and the remaining queued jobs are marked
// canceled as the worker takes them; their journal records stay
// requeue-able. Shutdown returns when the worker has exited, after
// releasing the journal lock (and removing a private journal); it is
// idempotent and safe to race with Close.
func (s *Server) Shutdown(ctx context.Context) {
	// The closing transition is taken under s.mu — the same lock admission
	// holds across its check-and-register — so after this critical section
	// no launch can observe closing == false and register a job later.
	s.mu.Lock()
	s.closing.Store(true)
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drain) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.journal.close()
	if s.tempJournal {
		os.RemoveAll(s.journal.dir)
	}
}

// Close stops the server without draining: every job still queued or
// running is canceled. Equivalent to Shutdown with an already-expired
// context.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}

// Recovered reports how many jobs were re-tracked from the journal at
// startup.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// --- HTTP API ---

// Handler returns the service's HTTP routes. API resources live under
// api.Prefix ("/api/v1") only — the unversioned legacy "/api" aliases
// served their one deprecation window and are gone (requests there get
// 404; DESIGN.md "API v1"). /healthz and /metrics are operational
// endpoints, not API resources, and stay unversioned. Every route goes
// through route(), which pairs the registration with a per-route
// request counter — ci.sh gates direct mux.HandleFunc calls so a new
// endpoint cannot ship unmetered. The catch-all "/" answers every other
// path, and a known path under the wrong method, with a 404 envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{http.MethodGet, "/experiments", s.handleExperiments},
		{http.MethodGet, "/runs", s.handleListRuns},
		{http.MethodPost, "/runs", s.handleLaunch},
		{http.MethodGet, "/runs/{id}", s.handleGetRun},
		{http.MethodDelete, "/runs/{id}", s.handleCancelRun},
		{http.MethodGet, "/runs/{id}/events", s.handleEvents},
		{http.MethodGet, "/results/{exp}", s.handleResult},
		{http.MethodGet, "/policies", s.handlePolicies},
		{http.MethodGet, "/policies/{id}", s.handlePolicy},
		{http.MethodGet, "/policies/{id}/snapshot", s.handlePolicySnapshot},
	}
	for _, rt := range routes {
		s.route(mux, rt.method+" "+api.Prefix+rt.path, rt.h)
	}
	s.route(mux, "GET /healthz", s.handleHealth)
	s.route(mux, "GET /metrics", obs.Default().Handler().ServeHTTP)
	s.route(mux, "/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, api.Errorf(api.CodeNotFound, "no route for %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// route registers pattern with a request counter wrapped around the
// handler. The ci.sh route-metrics gate requires all registrations to go
// through here (the one direct call below is the allow-listed wrapper).
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	c := routeCounter(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { // route-metrics-allow
		c.Inc()
		h(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the unified v1 error envelope ({"error": {...}}) for
// every non-2xx response. The HTTP status derives from the error code.
// Any 503 — queue full, degraded store, shutdown, missing subsystem —
// is forced Retryable with a Retry-After header of at least one second,
// so every shed path gives clients an honest backoff hint by
// construction rather than by each call site remembering to.
func writeError(w http.ResponseWriter, e api.Error) {
	status := api.StatusFor(e.Code)
	if status == http.StatusServiceUnavailable {
		e.Retryable = true
		if e.RetryAfterSec < 1 {
			e.RetryAfterSec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	writeJSON(w, status, api.ErrorResponse{Error: e})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []api.ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	for _, e := range harness.ExtendedExperiments() {
		out = append(out, api.ExperimentInfo{ID: e.ID, Title: e.Title, Extended: true})
	}
	writeJSON(w, http.StatusOK, api.ExperimentsResponse{Experiments: out})
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		shedCounter("closing").Inc()
		writeError(w, api.Errorf(api.CodeShuttingDown, "server is shutting down"))
		return
	}
	// The POST body is the shared api.LaunchRequest DTO: an experiment
	// render or, with Train set, a policy-training job.
	var req api.LaunchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	spec := jobRecord{Kind: KindExperiment, Experiment: req.Experiment, Scale: req.Scale}
	if spec.Scale == "" {
		spec.Scale = "default"
	}
	if req.Train != nil {
		spec.Kind, spec.Workload, spec.Config = KindTrain, req.Train.Workload, req.Train.Config
		if spec.Config == "" {
			spec.Config = "pythia"
		}
	}
	j, specErr := s.newJob(spec)
	if specErr != nil {
		writeError(w, *specErr)
		return
	}
	// Degraded mode: an open policy breaker sheds training work (every
	// training job needs a store write to be useful). With the result-store
	// breaker open, only experiments the store can already answer are
	// admitted — a store hit needs no write, so degraded is read-only, not
	// down.
	if j.kind == KindTrain && !s.polBrk.allow() {
		j.cancel()
		shedDegraded(w, s.polBrk, "policy store")
		return
	}
	if j.kind != KindTrain && !s.storeBrk.allow() && !s.store.Has(harness.ExperimentKey(j.expID, j.scale)) {
		j.cancel()
		shedDegraded(w, s.storeBrk, "result store")
		return
	}

	// Mint the ID under mu (only now, so refused launches burn none), but
	// journal the admission outside it: the journal write (and the crash
	// failpoint after it) must not poison the server lock if it dies.
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()
	j.id = id
	j.publish("status", j.viewLocked())
	// Journal before registration: a crash in the window before
	// registration (the FPAdmitCrash failpoint) leaves a journaled job
	// that recovery requeues — the at-least-once side of the durability contract
	// (content-addressed stores make the possible re-execution
	// idempotent).
	j.checkpoint()
	if err := fault.Hit(FPAdmitCrash); err != nil {
		s.journal.remove(id)
		j.cancel()
		writeError(w, api.Errorf(api.CodeInternal, "admission failed: %v", err))
		return
	}

	// The closing check and registration are one step under mu, and
	// Shutdown takes mu for its closing transition, so a registered job is
	// one the worker (or Shutdown) will finish.
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		s.journal.remove(id)
		j.cancel()
		shedCounter("closing").Inc()
		writeError(w, api.Errorf(api.CodeShuttingDown, "server is shutting down"))
		return
	}
	if s.queuedLocked() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		// The rejected job was never admitted: drop its journal record and
		// release its context registration on baseCtx so retry storms
		// against a full queue don't accumulate canceled children.
		s.journal.remove(id)
		j.cancel()
		shedCounter("queue_full").Inc()
		s.log.Warn("launch shed: queue full", "depth", s.cfg.QueueDepth)
		writeError(w, api.Error{
			Code:          api.CodeQueueFull,
			Message:       fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth),
			RetryAfterSec: 1,
		})
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	s.mu.Unlock()
	s.signal()
	s.log.Info("job admitted", "job", id, "kind", j.kind,
		"experiment", j.expID, "scale", j.scaleName)
	writeJSON(w, http.StatusAccepted, api.JobResponse{Job: j.view()})
}

// queued counts the jobs waiting for the in-process worker, for /healthz
// and /metrics.
func (s *Server) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// queuedLocked is queued for callers holding s.mu; it is also the
// admission bound (Config.QueueDepth).
func (s *Server) queuedLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.waiting() {
			n++
		}
	}
	return n
}

// shedDegraded answers a launch that needs a degraded store: 503 with a
// Retry-After hint derived from the breaker's remaining cooldown, so
// well-behaved clients back off instead of hammering a sick disk.
func shedDegraded(w http.ResponseWriter, b *breaker, what string) {
	shedCounter("degraded_" + b.name).Inc()
	writeError(w, api.Error{
		Code: api.CodeDegraded,
		Message: fmt.Sprintf(
			"%s is degraded (circuit breaker open); only stored results are being served", what),
		RetryAfterSec: b.retryAfter(),
	})
}

// pruneLocked evicts the oldest finished jobs past the history cap.
// Callers hold s.mu.
func (s *Server) pruneLocked() {
	finished := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			finished++
		}
	}
	if finished <= s.cfg.JobHistory {
		return
	}
	drop := finished - s.cfg.JobHistory
	kept := s.order[:0]
	for _, id := range s.order {
		if drop > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			s.journal.remove(id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.JobsResponse{Jobs: views})
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, api.JobResponse{Job: j.view()})
}

// handleCancelRun is DELETE /api/v1/runs/{id}: cancel a queued or running
// job. A queued job turns terminal immediately; a running one has its
// context canceled, which the harness observes at the next chunk boundary
// — either way the job's SSE stream ends with a terminal "canceled"
// event. Canceling an already-terminal job is a no-op (its final state is
// returned unchanged, with 409 to signal nothing was canceled).
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	if j.terminal() {
		writeError(w, api.Errorf(api.CodeConflict,
			"job %q is already %s; nothing to cancel", j.id, j.view().Status))
		return
	}
	// The job's mutex decides the race with the worker taking the job: a
	// job not yet taken turns terminal right here, and a taken one stops
	// at its next chunk boundary, the worker journaling the terminal
	// state. Either way a DELETE is an explicit client decision, so its
	// terminal state is journaled, unlike shutdown-driven cancellation
	// (which leaves the journal requeue-able).
	if j.cancelUser() {
		s.log.Info("queued job canceled", "job", j.id)
	} else {
		s.log.Info("cancel requested from worker", "job", j.id)
	}
	writeJSON(w, http.StatusOK, api.JobResponse{Job: j.view()})
}

// handleEvents streams a job's progress as server-sent events: the full
// history replays first, then live events until the job reaches a
// terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.Errorf(api.CodeInternal, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.subscribe()
	defer cancel()
	sawTerminal := false
	emit := func(ev Event) {
		if terminalStatus(ev.Type) {
			sawTerminal = true
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
	}
	for _, ev := range replay {
		emit(ev)
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				// Channel closed: the job is terminal. A subscriber that
				// fell behind may have had the terminal event dropped from
				// its buffer (publish never blocks the worker), so
				// synthesize it from the job's final state before ending
				// the stream — every client is guaranteed a terminal event.
				if !sawTerminal {
					if v := j.view(); terminalStatus(v.Status) {
						buf, err := json.Marshal(v)
						if err == nil {
							emit(Event{Type: v.Status, Data: buf})
							flusher.Flush()
						}
					}
				}
				return
			}
			emit(ev)
			flusher.Flush()
		}
	}
}

// handleResult serves a stored experiment result directly, without
// creating a job: the read path for consumers that only want cached
// tables (regenerating EXPERIMENTS.md, dashboards).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	expID := r.PathValue("exp")
	if _, ok := harness.ExperimentByID(expID); !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown experiment %q", expID))
		return
	}
	sc, err := s.scale(r.URL.Query().Get("scale"))
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	var payload harness.ExperimentPayload
	if !s.store.Get(harness.ExperimentKey(expID, sc), &payload) {
		writeError(w, api.Errorf(api.CodeNotFound, "no stored result for %s at this scale (launch a run first)", expID))
		return
	}
	writeJSON(w, http.StatusOK, api.ResultResponse{Result: payload, Rendered: payload.Table.Render()})
}

// --- Policy lifecycle endpoints ---

// policyStore returns the configured policy store or answers 503.
func (s *Server) policyStore(w http.ResponseWriter) (*policy.Store, bool) {
	if s.cfg.Policies == nil {
		writeError(w, api.Errorf(api.CodeUnavailable, "no policy store configured"))
		return nil, false
	}
	return s.cfg.Policies, true
}

// handlePolicies lists the metadata of every stored policy (newest
// first); snapshots are not shipped — fetch one via its /snapshot path.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	metas := st.List()
	if metas == nil {
		metas = []policy.Meta{}
	}
	writeJSON(w, http.StatusOK, api.PoliciesResponse{Policies: metas})
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	env, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown policy %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, api.PolicyResponse{Policy: env.Meta})
}

// handlePolicySnapshot downloads a policy's raw PYQV01 snapshot bytes —
// the "ship the learned tables to another machine" path.
func (s *Server) handlePolicySnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	env, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown policy %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", env.ID+".pyqv"))
	w.WriteHeader(http.StatusOK)
	w.Write(env.Snapshot)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	// The health report is truthful about degradation: an open breaker
	// flips ok to false and names itself, so probes (and humans)
	// see "degraded read-only", not a lying green light. The endpoint
	// still answers 200 — the process is alive and serving store hits.
	degraded := s.storeBrk.open() || s.polBrk.open()
	health := api.Health{
		OK:            !degraded,
		Degraded:      degraded,
		Breakers:      map[string]api.BreakerState{"results": s.storeBrk.view(), "policies": s.polBrk.view()},
		UptimeSeconds: time.Since(s.started).Seconds(),
		Jobs:          jobs,
		QueueDepth:    s.cfg.QueueDepth,
		Queued:        s.queued(),
		Closing:       s.closing.Load(),
		Sims:          harness.SimCount(),
		Workers:       harness.Workers(),
		Stores:        s.storesHealth(),
		Journal: &api.JournalHealth{
			Dir:         s.journal.dir,
			Recovered:   s.recovered,
			WriteErrors: s.journal.writeErrs.Load(),
		},
	}
	writeJSON(w, http.StatusOK, health)
}

// storesHealth derives the per-store health section from the metrics
// registry instead of hand-calling each store's counters: any store that
// registers pythia_store_* series (results, policies, the trace cache —
// and whatever comes next) appears here automatically, so a new store
// can't silently go unreported. Directories are annotated for the
// instances this server owns.
func (s *Server) storesHealth() map[string]api.StoreHealth {
	stores := map[string]api.StoreHealth{}
	for _, f := range obs.Default().Gather() {
		var set func(*api.StoreHealth, int64)
		switch f.Name {
		case "pythia_store_hits_total":
			set = func(h *api.StoreHealth, v int64) { h.Hits = v }
		case "pythia_store_misses_total":
			set = func(h *api.StoreHealth, v int64) { h.Misses = v }
		case "pythia_store_writes_total":
			set = func(h *api.StoreHealth, v int64) { h.Writes = v }
		case "pythia_store_entries":
			set = func(h *api.StoreHealth, v int64) { h.Entries = v }
		default:
			continue
		}
		for _, m := range f.Metrics {
			name := m.Labels.Get("store")
			if name == "" {
				continue
			}
			ent := stores[name]
			set(&ent, int64(m.Value))
			stores[name] = ent
		}
	}
	if ent, ok := stores["results"]; ok {
		ent.Dir = s.store.Dir()
		stores["results"] = ent
	}
	if p := s.cfg.Policies; p != nil {
		if ent, ok := stores["policies"]; ok {
			ent.Dir = p.Dir()
			stores["policies"] = ent
		}
	}
	return stores
}
