package serve

// Claims over the job journal. Mutual exclusion comes from claim files
// created with O_CREATE|O_EXCL — the one primitive POSIX rename-based
// stores don't give us — so exactly one claimant wins each job: the
// in-process worker taking it, or the frontend canceling it while it is
// queued. A claim outlives the process that made it, which is how a
// server restarted over the same journal tells a dead owner's jobs
// (requeue them) from a live one's (leave them). Everything else (job
// records, worker heartbeats) is atomic-rename JSON in the established
// store idiom.
//
// Layout under the journal dir:
//
//	<id>.json          job record (journal.go)
//	claims/<id>.claim  live execution claim: {id, owner, claimed_at}
//	workers/<owner>.json worker heartbeat: state, throughput counters
//
// A claim lives while its owner does: the reaper (reapStale) keeps it
// while the owner's heartbeat document is younger than the stale bound.
// Ownership identity is PID plus a per-process start nonce. The nonce
// matters: PIDs recycle, and a liveness check keyed on bare PID would
// let a new process that happens to receive a dead worker's PID keep —
// in effect steal — the dead worker's claims with its own heartbeat.
// Heartbeats and claims are therefore matched on the full owner string.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pythia/internal/fsutil"
)

// processNonce is this process's start-time nonce: minted once at init,
// distinct across processes even when PIDs recycle. Crypto randomness is
// overkill for uniqueness but free at 8 bytes per process lifetime.
var processNonce = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the start time; the combination with PID still
		// distinguishes any two processes that do not start in the same
		// nanosecond with the same recycled PID.
		return uint64(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint64(b[:])
}()

// NewOwnerID mints a claim-owner identity for this process: PID plus the
// process start nonce. Multiple owners minted in one process (the
// worker's and the frontend's, tests) get a distinguishing suffix.
func NewOwnerID(label string) string {
	id := fmt.Sprintf("pid%d-%016x", os.Getpid(), processNonce)
	if label != "" {
		id += "-" + fsutil.Sanitize(label)
	}
	return id
}

// claimRecord is the on-disk claim document. Claims written before the
// heartbeat became the only liveness signal also carry a lease_until
// field, which is ignored.
type claimRecord struct {
	ID        string    `json:"id"`
	Owner     string    `json:"owner"`
	ClaimedAt time.Time `json:"claimed_at"`
}

func (l *journal) claimsDir() string  { return filepath.Join(l.dir, "claims") }
func (l *journal) workersDir() string { return filepath.Join(l.dir, "workers") }

func (l *journal) claimPath(id string) string {
	return filepath.Join(l.claimsDir(), fsutil.Sanitize(id)+".claim")
}

// claim attempts to acquire the execution claim for a job. The
// O_CREATE|O_EXCL create is the atomic arbitration point: among any
// number of concurrent claimants exactly one creates the file. The
// winner's identity lands in the file body afterwards; until then the
// claim counts as live from the file's mtime (see lastSign).
func (l *journal) claim(id, owner string) bool {
	if err := os.MkdirAll(l.claimsDir(), 0o755); err != nil {
		return false
	}
	f, err := os.OpenFile(l.claimPath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	buf, _ := json.Marshal(claimRecord{ID: id, Owner: owner, ClaimedAt: time.Now().UTC()})
	f.Write(buf)
	f.Close()
	return true
}

// holds reports whether owner holds the job's claim. The check only
// reads: an owner whose claim was reaped learns that it lost the job
// and never recreates the claim under a requeued record.
func (l *journal) holds(id, owner string) bool {
	c, ok := l.claimState(id)
	return ok && c.Owner == owner
}

// releaseClaim drops a held claim after verifying ownership; releasing a
// claim someone else now holds is a no-op.
func (l *journal) releaseClaim(id, owner string) {
	if l.holds(id, owner) {
		os.Remove(l.claimPath(id))
	}
}

// claimState reads a job's claim. ok reports whether a claim file
// exists; an unparseable or half-written body reads as a claim with an
// empty owner and no claimed_at.
func (l *journal) claimState(id string) (claimRecord, bool) {
	buf, err := os.ReadFile(l.claimPath(id))
	if err != nil {
		return claimRecord{}, false
	}
	var c claimRecord
	json.Unmarshal(buf, &c)
	c.ID = id
	return c, true
}

// lastSign is a claim's owner's last sign of life: the owner's heartbeat
// when it has one, else the claim's claimed_at, else (an empty or
// unparseable body) the claim file's mtime. The fallbacks cover a
// claimant between its create and its body write, the frontend's short
// cancel claim, and claims written before owners heartbeat.
func (l *journal) lastSign(c claimRecord, beats map[string]time.Time) time.Time {
	if t, ok := beats[c.Owner]; ok {
		return t
	}
	if !c.ClaimedAt.IsZero() {
		return c.ClaimedAt
	}
	if st, err := os.Stat(l.claimPath(c.ID)); err == nil {
		return st.ModTime()
	}
	return time.Now()
}

// reapStale removes every claim whose owner's last sign of life is older
// than staleAfter, and returns the affected job IDs. Removing the claim
// is the whole requeue: a non-terminal record with no claim is
// claimable again. The server's watcher is the journal's one reaper. A
// live owner that was wrongly reaped finds its claim gone at its
// sampler's next ownership check and abandons the run instead of
// split-braining.
func (l *journal) reapStale(staleAfter time.Duration) []string {
	ents, err := os.ReadDir(l.claimsDir())
	if err != nil || len(ents) == 0 {
		return nil
	}
	beats := make(map[string]time.Time)
	for _, w := range l.loadWorkers() {
		beats[w.Owner] = w.UpdatedAt
	}
	now := time.Now()
	var reaped []string
	for _, e := range ents {
		id, ok := strings.CutSuffix(e.Name(), ".claim")
		if !ok || e.IsDir() {
			continue
		}
		c, ok := l.claimState(id)
		if !ok || now.Sub(l.lastSign(c, beats)) <= staleAfter {
			continue
		}
		if err := os.Remove(l.claimPath(id)); err == nil {
			reaped = append(reaped, id)
		}
	}
	return reaped
}

// --- Worker heartbeats ---

// WorkerInfo is a worker's heartbeat document: liveness (its claims
// live while UpdatedAt is fresh), occupancy (busy or idle, and the
// claimed job), and cumulative throughput counters (completed jobs and
// executed sims).
type WorkerInfo struct {
	Owner string `json:"owner"`
	PID   int    `json:"pid"`
	// State is "idle" or "busy"; Job is the claimed job while busy.
	State string `json:"state"`
	Job   string `json:"job,omitempty"`
	// Jobs and Sims count completed jobs and executed simulations.
	Jobs int64 `json:"jobs"`
	Sims int64 `json:"sims"`

	StartedAt time.Time `json:"started_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

func (l *journal) workerPath(owner string) string {
	return filepath.Join(l.workersDir(), fsutil.Sanitize(owner)+".json")
}

// putWorker lands a worker heartbeat (best-effort, like every journal
// write: a lost heartbeat costs liveness slack, never correctness).
func (l *journal) putWorker(w WorkerInfo) {
	w.UpdatedAt = time.Now().UTC()
	err := fsutil.WriteAtomic(l.workersDir(), l.workerPath(w.Owner), func(tmp *os.File) error {
		buf, merr := json.Marshal(&w)
		if merr != nil {
			return merr
		}
		_, werr := tmp.Write(buf)
		return werr
	})
	if err != nil {
		l.writeErrs.Add(1)
	}
}

// removeWorker retires a worker's heartbeat file on a graceful exit.
func (l *journal) removeWorker(owner string) {
	os.Remove(l.workerPath(owner))
}

// loadWorkers reads every parseable worker heartbeat.
func (l *journal) loadWorkers() []WorkerInfo {
	ents, err := os.ReadDir(l.workersDir())
	if err != nil {
		return nil
	}
	var out []WorkerInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(l.workersDir(), name))
		if err != nil {
			continue
		}
		var w WorkerInfo
		if err := json.Unmarshal(buf, &w); err != nil || w.Owner == "" {
			continue
		}
		out = append(out, w)
	}
	return out
}
