package serve

// The worker loop, and the fleet worker role built on it: a process that
// drains jobs from a shared journal directory through the same loop,
// claim step and execution engine as a Server's in-process worker.
// Worker processes hold no HTTP surface and no queue — the journal IS
// the queue: a non-terminal record with no claim file is claimable, the
// O_CREATE|O_EXCL claim is the arbitration, and every state transition
// lands in the record where the fleet frontend's watcher picks it up.
// pythia-serve -worker runs this loop; the fleet coordinator keeps a
// fixed number of them alive.

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/results"
)

// WorkerConfig parameterizes a fleet worker process.
type WorkerConfig struct {
	// Store is the shared result store (required); Policies the shared
	// policy store (optional, like Config.Policies).
	Store    *results.Store
	Policies *policy.Store
	// JournalDir is the shared journal directory (required) — the same
	// one the fleet frontend admits into.
	JournalDir string

	// MaxAttempts, RetryBase and ProgressInterval mirror the Config
	// fields of the same names (same defaults). Every ProgressInterval the
	// running job's record is checkpointed and its claim checked.
	MaxAttempts      int
	RetryBase        time.Duration
	ProgressInterval time.Duration
	// PollInterval is how long an idle worker sleeps between journal
	// scans; the default is 100ms.
	PollInterval time.Duration
	// HeartbeatInterval is how often the worker rewrites its heartbeat
	// document (from a background goroutine, so long jobs don't starve
	// it); the default is 1s. The heartbeat is the worker's only liveness
	// signal: its claims live while the heartbeat is younger than the
	// coordinator's StaleAfter (5s by default), and past that the
	// coordinator kills the worker as hung, reaps its claims and respawns
	// its slot.
	HeartbeatInterval time.Duration
	// ExtraScales must match the frontend's table for its journaled jobs
	// to resolve here. Parametric "custom:..." scales resolve in any
	// process and need no entry.
	ExtraScales map[string]harness.Scale
	// BreakerThreshold and BreakerCooldown parameterize this worker's
	// store breakers (per-process: a worker with a sick local disk
	// degrades alone).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Label distinguishes multiple workers minted in one process (tests);
	// usually empty.
	Label string

	Logger *slog.Logger
}

// worker is the one scan-claim-execute loop, shared by worker processes
// (RunWorker) and a Server's in-process worker. Hooks say where they
// differ: candidates lists the job IDs worth trying (a journal scan in a
// worker process; the server's own queued jobs in-process), take turns
// a won claim into the job to execute (a job built from the record; the
// frontend's own job, so its status and SSE stay direct), and next
// waits for work (a poll interval; the server's admission doorbell).
type worker struct {
	exec    *executor
	started time.Time

	// candidates lists job IDs to try to claim, in the order to try them.
	candidates func() []string
	// take turns a claimed job ID into the job to run, with the error
	// rebuilding it, if any; a nil job means there is nothing to run (the
	// job turned terminal meanwhile) and the claim is released.
	take func(id string) (j *job, specErr error)
	// next is called after every scan with whether the scan ran a job;
	// it waits for work when none was found, and reports whether to
	// scan again.
	next func(ran bool) bool

	// mu guards the heartbeat document's mutable fields: the loop writes
	// them at state transitions while the background heartbeat goroutine
	// reads them every tick.
	mu    sync.Mutex
	state string
	job   string
	// jobs and sims accumulate into the heartbeat file.
	jobs int64
	sims int64
}

// RunWorker drains jobs from the shared journal until ctx is canceled:
// scan for a claimable record, win its claim, execute it through the
// shared engine, journal the terminal state, release the claim. Returns
// the number of jobs it completed. Cancellation is graceful by
// construction: the in-flight job's context is a child of ctx, so a
// SIGTERM-driven cancel finishes it "canceled" without journaling over
// its requeue-able state, releases the claim, and lets a surviving
// worker pick the job up.
func RunWorker(ctx context.Context, cfg WorkerConfig) (int64, error) {
	if cfg.Store == nil {
		return 0, fmt.Errorf("serve: WorkerConfig.Store is required")
	}
	if cfg.JournalDir == "" {
		return 0, fmt.Errorf("serve: WorkerConfig.JournalDir is required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	ec := Config{
		Store:            cfg.Store,
		Policies:         cfg.Policies,
		MaxAttempts:      cfg.MaxAttempts,
		RetryBase:        cfg.RetryBase,
		ProgressInterval: cfg.ProgressInterval,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Logger:           cfg.Logger,
	}
	ec.defaults()

	jl, err := openJournal(cfg.JournalDir)
	if err != nil {
		return 0, err
	}
	owner := NewOwnerID(cfg.Label)
	ec.Logger = ec.Logger.With("worker", owner)
	w := newWorker(newExecutor(ec, jl, owner))
	b := &jobBuilder{base: ctx, extraScales: cfg.ExtraScales, jl: jl}
	// Records are visited in job-ID order, so the fleet approximates the
	// frontend's FIFO admission order.
	w.candidates = func() []string {
		var ids []string
		for _, rec := range jl.load() {
			if !terminalStatus(rec.Status) {
				ids = append(ids, rec.ID)
			}
		}
		return ids
	}
	w.take = func(id string) (*job, error) {
		// Re-read under the claim: a frontend cancels a queued job by
		// winning its claim, finishing it and releasing the claim, which
		// may all fall between the scan and our claim.
		rec, ok := jl.get(id)
		if !ok || terminalStatus(rec.Status) {
			return nil, nil
		}
		return b.build(rec)
	}
	w.next = func(ran bool) bool {
		if !ran {
			select {
			case <-ctx.Done():
			case <-time.After(cfg.PollInterval):
			}
		}
		return ctx.Err() == nil
	}
	ec.Logger.Info("worker up", "journal", cfg.JournalDir, "pid", os.Getpid())
	jobs := w.run(cfg.HeartbeatInterval)
	ec.Logger.Info("worker draining out", "jobs", jobs)
	return jobs, nil
}

func newWorker(exec *executor) *worker {
	return &worker{exec: exec, started: time.Now().UTC(), state: "idle"}
}

// run lands the heartbeat document before the first claim, keeps it
// fresh every interval from a background goroutine (so a worker deep in
// a long job still proves liveness, and its claims stay live), and runs
// the loop until next says stop. It returns the jobs completed.
func (w *worker) run(every time.Duration) int64 {
	w.heartbeat()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				w.heartbeat()
			}
		}
	}()
	for w.next(w.drainOne()) {
	}
	close(done)
	wg.Wait()
	// A graceful exit retires the heartbeat; a SIGKILL leaves it to go
	// stale, which frees the dead worker's claims.
	w.exec.journal.removeWorker(w.exec.owner)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs
}

// drainOne claims the first candidate it can, executes it, and reports
// whether it ran one.
func (w *worker) drainOne() bool {
	for _, id := range w.candidates() {
		if !w.exec.journal.claim(id, w.exec.owner) {
			continue // held by another owner, or lost the race for it
		}
		j, specErr := w.take(id)
		if j == nil {
			w.exec.journal.releaseClaim(id, w.exec.owner)
			continue
		}
		w.setState("busy", id)
		finished, sims := w.exec.runClaimed(j, specErr)
		w.mu.Lock()
		if finished {
			w.jobs++
		}
		w.sims += sims
		w.mu.Unlock()
		w.setState("idle", "")
		return true
	}
	return false
}

// setState records a state transition; the heartbeat ticker lands it, so
// the job path writes no file for it.
func (w *worker) setState(state, jobID string) {
	w.mu.Lock()
	w.state = state
	w.job = jobID
	w.mu.Unlock()
}

// heartbeat lands this worker's liveness/occupancy document.
func (w *worker) heartbeat() {
	w.mu.Lock()
	doc := WorkerInfo{
		Owner:     w.exec.owner,
		PID:       os.Getpid(),
		State:     w.state,
		Job:       w.job,
		Jobs:      w.jobs,
		Sims:      w.sims,
		StartedAt: w.started,
	}
	w.mu.Unlock()
	w.exec.journal.putWorker(doc)
}
