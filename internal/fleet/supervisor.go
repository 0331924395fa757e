package fleet

import (
	"fmt"
	"log/slog"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// supervisor owns the worker processes: spawn, readiness bookkeeping,
// kill, graceful stop of the whole pool (SIGTERM, then SIGKILL after a
// grace window), and sweeping the corpses. It knows nothing about the pool size or the
// journal — the coordinator decides, the supervisor executes.
type supervisor struct {
	newCmd func() *exec.Cmd
	grace  time.Duration
	log    *slog.Logger

	mu    sync.Mutex
	procs map[int]*workerProc
}

// workerProc tracks one spawned worker process.
type workerProc struct {
	pid       int
	cmd       *exec.Cmd
	spawnedAt time.Time
	// owner is the worker's claim-owner identity, learned from its first
	// heartbeat; ready flips true at the same moment.
	owner string
	ready bool
	// stopping marks a process the supervisor killed or is stopping.
	stopping bool
	// exited closes when cmd.Wait returns.
	exited chan struct{}
}

func newSupervisor(newCmd func() *exec.Cmd, grace time.Duration, log *slog.Logger) *supervisor {
	return &supervisor{newCmd: newCmd, grace: grace, log: log, procs: make(map[int]*workerProc)}
}

// spawn starts one worker process.
func (s *supervisor) spawn() error {
	cmd := s.newCmd()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: spawn worker: %w", err)
	}
	p := &workerProc{
		pid:       cmd.Process.Pid,
		cmd:       cmd,
		spawnedAt: time.Now().UTC(),
		exited:    make(chan struct{}),
	}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	s.mu.Lock()
	s.procs[p.pid] = p
	s.mu.Unlock()
	s.log.Info("worker spawned", "pid", p.pid)
	return nil
}

// markReady records that a heartbeat for pid appeared; returns the
// spawn-to-ready latency on the first call for that pid.
func (s *supervisor) markReady(pid int, owner string) (coldStart time.Duration, first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	if !ok || p.ready {
		return 0, false
	}
	p.ready = true
	p.owner = owner
	return time.Now().UTC().Sub(p.spawnedAt), true
}

// counts reports live supply: ready (heartbeat seen) and starting
// (spawned, no heartbeat yet). Stopping and exited processes count as
// neither.
func (s *supervisor) counts() (ready, starting int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		if p.stopping || exited(p) {
			continue
		}
		if p.ready {
			ready++
		} else {
			starting++
		}
	}
	return ready, starting
}

// live reports the pids and owners of non-stopping, non-exited workers.
func (s *supervisor) live() map[int]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]string, len(s.procs))
	for pid, p := range s.procs {
		if !p.stopping && !exited(p) {
			out[pid] = p.owner
		}
	}
	return out
}

// sweep removes exited processes from the table and returns them —
// the coordinator retires their heartbeat documents and treats
// not-asked-to-stop exits as crashes to respawn over.
func (s *supervisor) sweep() (crashed, stopped []*workerProc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid, p := range s.procs {
		if !exited(p) {
			continue
		}
		delete(s.procs, pid)
		if p.stopping {
			stopped = append(stopped, p)
		} else {
			crashed = append(crashed, p)
		}
	}
	return crashed, stopped
}

// kill stops one worker at once with SIGKILL.
func (s *supervisor) kill(pid int) {
	s.mu.Lock()
	p, ok := s.procs[pid]
	if ok {
		p.stopping = true
	}
	s.mu.Unlock()
	if ok {
		p.cmd.Process.Kill()
	}
}

// stopAll stops every worker gracefully — SIGTERM, so in-flight jobs
// release their claims and the workers drain out — and SIGKILLs any
// that outlive the grace window.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	procs := make([]*workerProc, 0, len(s.procs))
	for _, p := range s.procs {
		p.stopping = true
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.Now().Add(s.grace)
	for _, p := range procs {
		select {
		case <-p.exited:
		case <-time.After(time.Until(deadline)):
			s.log.Warn("worker ignored SIGTERM, killing", "pid", p.pid)
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

func exited(p *workerProc) bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}
