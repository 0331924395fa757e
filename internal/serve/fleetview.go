package serve

// FleetJournal is the read/admin façade the fleet coordinator uses over
// a shared journal directory: backlog counts for the fleet status, worker
// heartbeats for liveness and occupancy, and expired-claim reaping. All
// journal file-format knowledge stays in this package — fleet imports
// serve, never the reverse.

import (
	"time"
)

// FleetJournal exposes the coordinator-facing slice of a journal.
type FleetJournal struct {
	jl *journal
}

// OpenFleetJournal opens dir for fleet coordination (creating it if
// needed, like the frontend and workers do).
func OpenFleetJournal(dir string) (*FleetJournal, error) {
	jl, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	return &FleetJournal{jl: jl}, nil
}

// Backlog counts the fleet's open work in one scan: queued is
// non-terminal records with no claim (work an idle worker could start
// this instant), inflight is non-terminal records currently claimed.
func (f *FleetJournal) Backlog() (queued, inflight int) {
	for _, rec := range f.jl.load() {
		if terminalStatus(rec.Status) {
			continue
		}
		if _, claimed := f.jl.claimState(rec.ID); claimed {
			inflight++
		} else {
			queued++
		}
	}
	return queued, inflight
}

// WorkerInfo is one worker process's heartbeat as the coordinator sees
// it (the exported view of the on-disk document).
type WorkerInfo struct {
	Owner string
	PID   int
	// State is "idle" or "busy"; Job is the claimed job while busy.
	State string
	Job   string
	// Jobs and Sims are cumulative completed-job/executed-simulation
	// counters.
	Jobs int64
	Sims int64

	StartedAt time.Time
	UpdatedAt time.Time
}

// Workers lists every worker heartbeat on disk, dead or alive — the
// caller judges staleness against UpdatedAt.
func (f *FleetJournal) Workers() []WorkerInfo {
	states := f.jl.loadWorkers()
	out := make([]WorkerInfo, 0, len(states))
	for _, w := range states {
		out = append(out, WorkerInfo(w))
	}
	return out
}

// RemoveWorker retires a dead worker's heartbeat document.
func (f *FleetJournal) RemoveWorker(owner string) {
	f.jl.removeWorker(owner)
}

// ReapExpired removes claims whose lease lapsed, requeueing their jobs
// (a non-terminal record without a claim is claimable again); it returns
// the affected job IDs. The coordinator is the fleet's single reaper —
// see the claim-protocol notes in claims.go.
func (f *FleetJournal) ReapExpired(grace time.Duration) []string {
	return f.jl.reapExpiredClaims(grace, "")
}
