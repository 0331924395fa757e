// Package fleet runs a local cluster of pythia-serve worker processes:
// a supervisor that spawns and stops them, and a coordinator that keeps
// a fixed number of them alive over the shared job journal (respawning
// exited workers, replacing hung ones, reaping the claims of stale
// owners, serving the /api/v1/fleet view). All coordination rides the
// journal's claim and heartbeat files — there is no worker wire protocol
// to version or secure.
package fleet

import (
	"fmt"
	"log/slog"
	"os/exec"
	"sync"
	"time"

	"pythia/internal/api"
	"pythia/internal/obs"
	"pythia/internal/serve"
)

// Config parameterizes a Coordinator.
type Config struct {
	// JournalDir is the shared journal directory (required) — the same
	// one the frontend admits into and workers drain.
	JournalDir string
	// WorkerCommand builds the command for one worker process (required);
	// typically the serving binary re-exec'd with -worker flags. Each
	// call must return a fresh *exec.Cmd.
	WorkerCommand func() *exec.Cmd

	// Workers is the fleet size (required, at least 1): the coordinator
	// starts this many worker processes and respawns any that exit.
	Workers int

	// PollInterval is the coordinator's control-loop cadence; the default
	// is 500ms.
	PollInterval time.Duration
	// StopGrace is how long a worker SIGTERM'd by Close gets before
	// SIGKILL; the default is 10s.
	StopGrace time.Duration
	// StaleAfter is how old a worker heartbeat may grow before the worker
	// counts as hung — it is killed, and its claims are reaped so their
	// jobs requeue; the default is 5s (five worker heartbeat intervals).
	StaleAfter time.Duration

	Logger *slog.Logger
}

// Coordinator runs the fleet control loop: reap stale owners' claims so
// orphaned jobs requeue, track worker liveness and cold starts, kill
// hung workers, and respawn until Workers processes are alive. It is the
// fleet's single reaper — see the claim-protocol notes in
// serve/claims.go for why reaping must not be replicated per worker.
type Coordinator struct {
	cfg Config
	fj  *serve.FleetJournal
	sup *supervisor
	log *slog.Logger

	done chan struct{}
	wg   sync.WaitGroup

	// mu guards the Status snapshot fields below, written by the loop and
	// read by the /api/v1/fleet handler.
	mu            sync.Mutex
	queued        int
	inflight      int
	coldStarts    int64
	lastColdStart time.Duration
	requeues      int64
	workers       []api.FleetWorker
}

// Start opens the journal, registers metrics, and launches the control
// loop, whose first tick spawns the Workers processes; Close stops the
// loop and the workers.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("fleet: Config.JournalDir is required")
	}
	if cfg.WorkerCommand == nil {
		return nil, fmt.Errorf("fleet: Config.WorkerCommand is required")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("fleet: Config.Workers must be at least 1, got %d", cfg.Workers)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.StopGrace <= 0 {
		cfg.StopGrace = 10 * time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 5 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	fj, err := serve.OpenFleetJournal(cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:  cfg,
		fj:   fj,
		sup:  newSupervisor(cfg.WorkerCommand, cfg.StopGrace, log),
		log:  log,
		done: make(chan struct{}),
	}
	c.registerMetrics()
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Close stops the control loop, then the workers (gracefully: SIGTERM
// first, so in-flight jobs release their claims for a future fleet).
func (c *Coordinator) Close() {
	close(c.done)
	c.wg.Wait()
	c.sup.stopAll()
}

// Status snapshots the fleet for GET /api/v1/fleet.
func (c *Coordinator) Status() api.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	ready, starting := c.sup.counts()
	return api.FleetStatus{
		Desired:              c.cfg.Workers,
		Ready:                ready,
		Starting:             starting,
		Queued:               c.queued,
		InFlight:             c.inflight,
		ColdStarts:           c.coldStarts,
		LastColdStartSeconds: c.lastColdStart.Seconds(),
		Requeues:             c.requeues,
		Workers:              append([]api.FleetWorker(nil), c.workers...),
	}
}

// loop is the control loop: reap, observe, kill the hung, sweep, respawn.
func (c *Coordinator) loop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	c.step() // spawn the fleet immediately, not a tick after boot
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.step()
		}
	}
}

// step runs one control-loop iteration.
func (c *Coordinator) step() {
	now := time.Now().UTC()

	// Requeue orphaned work first: a reaped claim turns its job claimable
	// before this tick's backlog is counted.
	if reaped := c.fj.ReapStale(c.cfg.StaleAfter); len(reaped) > 0 {
		mRequeues.Add(int64(len(reaped)))
		c.mu.Lock()
		c.requeues += int64(len(reaped))
		c.mu.Unlock()
		c.log.Warn("stale claims reaped, jobs requeued", "jobs", reaped)
	}

	// Match heartbeats to supervised processes: a first heartbeat flips
	// its process ready and measures the cold start.
	hbs := c.fj.Workers()
	livePids := c.sup.live()
	byPid := make(map[int]serve.WorkerInfo, len(hbs))
	for _, hb := range hbs {
		byPid[hb.PID] = hb
		if _, supervised := livePids[hb.PID]; !supervised {
			continue
		}
		if cold, first := c.sup.markReady(hb.PID, hb.Owner); first {
			mColdStarts.Inc()
			mColdStartSeconds.Set(cold.Seconds())
			c.mu.Lock()
			c.coldStarts++
			c.lastColdStart = cold
			c.mu.Unlock()
			c.log.Info("worker ready", "pid", hb.PID, "owner", hb.Owner,
				"cold_start_ms", cold.Milliseconds())
		}
	}

	// Kill hung workers. Heartbeats come from a background goroutine, so
	// a busy worker stays fresh; a stale one is frozen or wedged, and it
	// holds a slot of the fixed pool until it is gone. It gets SIGKILL at
	// once: a process whose heartbeat goroutine has not run for StaleAfter
	// cannot drain either, and its claims are already reapable. A killed
	// process no longer counts, so the respawn below replaces it at once.
	livePids = c.sup.live()
	for _, hb := range hbs {
		owner, supervised := livePids[hb.PID]
		if !supervised || owner != hb.Owner || now.Sub(hb.UpdatedAt) <= c.cfg.StaleAfter {
			continue
		}
		c.log.Warn("worker heartbeat stale, killing", "pid", hb.PID, "owner", hb.Owner,
			"age_ms", now.Sub(hb.UpdatedAt).Milliseconds())
		c.sup.kill(hb.PID)
	}

	// Sweep corpses and their heartbeat litter. A crashed worker (exited
	// without being asked) is just logged — reconciliation below respawns
	// it, and with its heartbeat gone the reaper counts its claims from
	// their claimed_at. Sweeping before spawning keeps a recycled PID from
	// inheriting a dead worker's heartbeat document.
	crashed, stopped := c.sup.sweep()
	for _, p := range crashed {
		c.log.Warn("worker died unexpectedly", "pid", p.pid, "owner", p.owner)
	}
	for _, p := range append(crashed, stopped...) {
		if p.owner != "" {
			c.fj.RemoveWorker(p.owner)
		}
	}
	// Heartbeats nobody supervises (a previous coordinator's workers, or
	// a SIGKILLed process swept before its document) age out here.
	livePids = c.sup.live()
	for _, hb := range hbs {
		if _, supervised := livePids[hb.PID]; supervised {
			continue
		}
		if now.Sub(hb.UpdatedAt) > c.cfg.StaleAfter {
			c.fj.RemoveWorker(hb.Owner)
		}
	}

	// Respawn up to the fleet size.
	ready, starting := c.sup.counts()
	for i := ready + starting; i < c.cfg.Workers; i++ {
		if err := c.sup.spawn(); err != nil {
			c.log.Error("worker spawn failed", "error", err.Error())
			break
		}
	}

	// Publish the status snapshot.
	queued, inflight := c.fj.Backlog()
	c.mu.Lock()
	c.queued = queued
	c.inflight = inflight
	c.workers = c.workersView(byPid, now)
	c.mu.Unlock()
}

// workersView renders the per-worker roster for Status.
func (c *Coordinator) workersView(byPid map[int]serve.WorkerInfo, now time.Time) []api.FleetWorker {
	var out []api.FleetWorker
	for pid, owner := range c.sup.live() {
		hb, ok := byPid[pid]
		if !ok {
			out = append(out, api.FleetWorker{PID: pid, State: "starting"})
			continue
		}
		if owner == "" {
			owner = hb.Owner
		}
		out = append(out, api.FleetWorker{
			Owner: owner, PID: pid, State: hb.State, Job: hb.Job,
			Jobs: hb.Jobs, Sims: hb.Sims,
			UptimeSeconds: now.Sub(hb.StartedAt).Seconds(),
		})
	}
	return out
}
