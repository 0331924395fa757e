package serve

// FleetJournal is the read/admin façade the fleet coordinator uses over
// a shared journal directory: backlog counts for the fleet status, worker
// heartbeats for liveness and occupancy, and stale-claim reaping. All
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

// Workers lists every worker heartbeat on disk, dead or alive — the
// caller judges staleness against UpdatedAt.
func (f *FleetJournal) Workers() []WorkerInfo {
	return f.jl.loadWorkers()
}

// RemoveWorker retires a dead worker's heartbeat document.
func (f *FleetJournal) RemoveWorker(owner string) {
	f.jl.removeWorker(owner)
}

// ReapStale removes the claims whose owner's heartbeat is older than
// staleAfter, requeueing their jobs (a non-terminal record without a
// claim is claimable again); it returns the affected job IDs. The
// coordinator is the fleet's single reaper — see the claim-protocol
// notes in claims.go.
func (f *FleetJournal) ReapStale(staleAfter time.Duration) []string {
	return f.jl.reapStale(staleAfter)
}
