package serve

// The fleet worker role: a thin process loop that drains jobs from a
// shared journal directory through the same claim step and execution
// engine as a Server's in-process worker (executor.go). Workers hold no
// HTTP surface and no queue — the journal IS the queue: a non-terminal
// record with no claim file is claimable, the O_CREATE|O_EXCL claim is
// the arbitration, and every state transition lands in the record where
// the fleet frontend's watcher picks it up. pythia-serve -worker runs
// this loop; the fleet coordinator keeps a fixed number of them alive.

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

	// LeaseTTL, MaxAttempts, RetryBase and ProgressInterval mirror the
	// Config fields of the same names (same defaults).
	LeaseTTL         time.Duration
	MaxAttempts      int
	RetryBase        time.Duration
	ProgressInterval time.Duration
	// PollInterval is how long an idle worker sleeps between journal
	// scans; the default is 100ms.
	PollInterval time.Duration
	// HeartbeatInterval is how often the worker's liveness document is
	// rewritten (a background goroutine, so long jobs don't starve it);
	// the default is 1s. The coordinator stops a worker whose heartbeat
	// is older than a few of these as hung, and respawns its slot.
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

// worker is the running state of one RunWorker invocation.
type worker struct {
	cfg     WorkerConfig
	jl      *journal
	exec    *executor
	owner   string
	ctx     context.Context
	log     *slog.Logger
	started time.Time

	// mu guards the heartbeat document's mutable fields: the loop writes
	// them at state transitions while the background heartbeat goroutine
	// reads them every tick (so a worker deep in a long job still proves
	// liveness).
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
		LeaseTTL:         cfg.LeaseTTL,
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
	w := &worker{
		cfg:     cfg,
		jl:      jl,
		owner:   owner,
		ctx:     ctx,
		log:     ec.Logger,
		exec:    newExecutor(ec, jl, owner),
		started: time.Now().UTC(),
	}
	w.log.Info("worker up", "journal", cfg.JournalDir, "pid", os.Getpid())
	w.setState("idle", "")
	defer jl.removeWorker(owner) // graceful exit retires the heartbeat; a SIGKILL leaves it for the coordinator to sweep

	// The heartbeat goroutine keeps liveness fresh even while the loop is
	// buried in a multi-minute job — a stale heartbeat means this process
	// is truly gone (or wedged solid), not merely busy.
	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		tick := time.NewTicker(cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-tick.C:
				w.heartbeat()
			}
		}
	}()
	return w.run()
}

// run is the scan-claim-execute loop.
func (w *worker) run() (int64, error) {
	for {
		if w.ctx.Err() != nil {
			w.mu.Lock()
			jobs := w.jobs
			w.mu.Unlock()
			w.log.Info("worker draining out", "jobs", jobs)
			return jobs, nil
		}
		if !w.drainOne() {
			select {
			case <-w.ctx.Done():
			case <-time.After(w.cfg.PollInterval):
			}
		}
	}
}

// drainOne scans the journal for one claimable job, executes it, and
// reports whether it found any. Records are visited in job-ID order so
// the fleet approximates the frontend's FIFO admission order.
func (w *worker) drainOne() bool {
	for _, rec := range w.jl.load() {
		if terminalStatus(rec.Status) {
			continue
		}
		if _, claimed := w.jl.claimState(rec.ID); claimed {
			continue
		}
		if !w.jl.claim(rec.ID, w.owner, w.exec.leaseTTL) {
			continue // lost the race for this one; try the next
		}
		// Re-read under the claim: a frontend cancels a queued job by
		// winning its claim, finishing it and releasing the claim, which
		// may all fall between this scan and the claim above.
		cur, ok := w.jl.get(rec.ID)
		if !ok || terminalStatus(cur.Status) {
			w.jl.releaseClaim(rec.ID, w.owner)
			continue
		}
		b := &jobBuilder{base: w.ctx, extraScales: w.cfg.ExtraScales, jl: w.jl}
		j, err := b.build(cur)
		w.setState("busy", cur.ID)
		finished, sims := w.exec.runClaimed(j, err)
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

// setState records a state transition and lands it immediately (the
// background ticker would get there within a heartbeat anyway; writing
// now keeps the coordinator's occupancy view prompt).
func (w *worker) setState(state, jobID string) {
	w.mu.Lock()
	w.state = state
	w.job = jobID
	w.mu.Unlock()
	w.heartbeat()
}

// heartbeat lands this worker's liveness/occupancy document.
func (w *worker) heartbeat() {
	w.mu.Lock()
	doc := workerState{
		Owner:     w.owner,
		PID:       os.Getpid(),
		State:     w.state,
		Job:       w.job,
		Jobs:      w.jobs,
		Sims:      w.sims,
		StartedAt: w.started,
	}
	w.mu.Unlock()
	w.jl.putWorker(doc)
}
