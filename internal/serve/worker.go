package serve

// The in-process worker: the one goroutine that executes jobs. It claims
// the server's open jobs in admission order, runs each through the
// executor, one at a time, and releases the claim. A background ticker
// rewrites its heartbeat document, which keeps its claims live; when the
// process dies the heartbeat goes stale and the next server over the
// journal reaps the claims and requeues their jobs.

import (
	"os"
	"sync"
	"time"
)

// worker holds the in-process worker's heartbeat document fields: the
// loop writes them at state transitions while the heartbeat goroutine
// reads them every tick.
type worker struct {
	exec    *executor
	started time.Time

	mu    sync.Mutex
	state string
	job   string
	// jobs and sims accumulate into the heartbeat file.
	jobs int64
	sims int64
}

// startWorker starts the in-process worker. It lands its heartbeat before
// the first claim and keeps it fresh every StaleAfter/5 from a background
// goroutine, so a job deep in a long simulation still keeps its claim
// live. Admission and reaping ring the doorbell (s.wake), so the worker
// never polls while a job waits. On shutdown it runs every job it can
// still claim (each honors its own context, so an aborted shutdown
// cancels them), then exits and retires its heartbeat; a SIGKILL leaves
// the heartbeat to go stale instead, which frees the dead worker's claims.
func (s *Server) startWorker() {
	w := &worker{exec: s.exec, started: time.Now().UTC(), state: "idle"}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		stopBeat := w.beat(max(s.cfg.StaleAfter/5, time.Millisecond))
		for draining := false; ; {
			if s.runOne(w) {
				continue
			}
			if draining {
				break
			}
			select {
			case <-s.wake:
			case <-s.drain:
				// Shutdown closes drain after its closing transition, so the
				// scans after it see every job admitted before it.
				draining = true
			}
		}
		stopBeat()
		s.journal.removeWorker(s.exec.owner)
	}()
}

// runOne claims the first waiting job it can, executes it, and reports
// whether it ran one. A job whose claim another owner holds (a previous
// process's, until reaping frees it) is skipped, and so is one that
// turned terminal between the scan and the claim (a DELETE won the
// claim, canceled the job and released the claim).
func (s *Server) runOne(w *worker) bool {
	for _, j := range s.waitingJobs() {
		if !s.journal.claim(j.id, s.exec.owner) {
			continue
		}
		if !j.setHeld() {
			s.journal.releaseClaim(j.id, s.exec.owner)
			continue
		}
		w.setState("busy", j.id)
		finished, sims := s.exec.runClaimed(j)
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

// beat lands the heartbeat document now and then every interval from a
// background goroutine; the returned function stops the goroutine and
// waits for it.
func (w *worker) beat(every time.Duration) (stop func()) {
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
	return func() {
		close(done)
		wg.Wait()
	}
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
