package serve

// Multi-process coordination over the job journal. A fleet of worker
// processes shares one journal directory; mutual exclusion comes from
// claim files created with O_CREATE|O_EXCL — the one primitive POSIX
// rename-based stores don't give us — so exactly one worker wins each
// job no matter how many scan concurrently. Everything else (job
// records, worker heartbeats, cancel markers) is atomic-rename JSON in
// the established store idiom.
//
// Layout under the journal dir:
//
//	<id>.json          job record (journal.go)
//	claims/<id>.claim  live execution claim: {owner, lease_until}
//	workers/<owner>.json worker heartbeat: state, throughput counters
//	cancels/<id>       cancel marker: a user canceled a claimed job
//
// Ownership identity is PID plus a per-process start nonce. The nonce
// matters: PIDs recycle, and a lease protocol keyed on bare PID would
// let a new process that happens to receive a dead worker's PID renew —
// in effect steal — a lease it never acquired. renewClaim therefore
// verifies the full owner string before rewriting the claim.

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

// NewOwnerID mints a lease-owner identity for this process: PID plus the
// process start nonce. Multiple owners minted in one process (tests,
// in-process worker pools) get a distinguishing suffix.
func NewOwnerID(label string) string {
	id := fmt.Sprintf("pid%d-%016x", os.Getpid(), processNonce)
	if label != "" {
		id += "-" + fsutil.Sanitize(label)
	}
	return id
}

// claimRecord is the on-disk claim document.
type claimRecord struct {
	ID         string    `json:"id"`
	Owner      string    `json:"owner"`
	LeaseUntil time.Time `json:"lease_until"`
	ClaimedAt  time.Time `json:"claimed_at"`
}

func (l *journal) claimsDir() string  { return filepath.Join(l.dir, "claims") }
func (l *journal) workersDir() string { return filepath.Join(l.dir, "workers") }
func (l *journal) cancelsDir() string { return filepath.Join(l.dir, "cancels") }

func (l *journal) claimPath(id string) string {
	return filepath.Join(l.claimsDir(), fsutil.Sanitize(id)+".claim")
}

// claim attempts to acquire the execution claim for a job. The
// O_CREATE|O_EXCL create is the atomic arbitration point: among any
// number of concurrent claimants exactly one creates the file. The
// winner's identity and lease land in the file body afterwards — a
// reader that sees an empty claim treats it as live (the winner is
// mid-write), which errs on the side of not double-executing.
func (l *journal) claim(id, owner string, ttl time.Duration) bool {
	if err := os.MkdirAll(l.claimsDir(), 0o755); err != nil {
		return false
	}
	f, err := os.OpenFile(l.claimPath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	now := time.Now().UTC()
	buf, _ := json.Marshal(claimRecord{ID: id, Owner: owner, LeaseUntil: now.Add(ttl), ClaimedAt: now})
	f.Write(buf)
	f.Close()
	return true
}

// renewClaim extends the lease on a held claim. It re-reads the claim
// first and refuses unless the recorded owner matches exactly — the
// recycled-PID defense: a process that did not mint this owner string
// cannot extend (or resurrect) the lease, and an owner whose claim was
// reaped learns it lost the job instead of silently recreating the
// claim under a requeued record.
func (l *journal) renewClaim(id, owner string, ttl time.Duration) error {
	cur, ok := l.claimState(id)
	if !ok {
		return fmt.Errorf("claim for %s is gone (lease reaped)", id)
	}
	if cur.Owner != owner {
		return fmt.Errorf("claim for %s is owned by %s, not %s", id, cur.Owner, owner)
	}
	cur.LeaseUntil = time.Now().UTC().Add(ttl)
	return fsutil.WriteAtomic(l.claimsDir(), l.claimPath(id), func(tmp *os.File) error {
		buf, err := json.Marshal(cur)
		if err != nil {
			return err
		}
		_, werr := tmp.Write(buf)
		return werr
	})
}

// releaseClaim drops a held claim after verifying ownership; releasing a
// claim someone else now holds is a no-op.
func (l *journal) releaseClaim(id, owner string) {
	if cur, ok := l.claimState(id); !ok || cur.Owner != owner {
		return
	}
	os.Remove(l.claimPath(id))
}

// claimState reads a job's claim. ok reports whether a claim file
// exists; an unparseable or half-written body reads as a live claim
// owned by nobody the caller knows (empty Owner, zero LeaseUntil is
// treated as live by claimExpired's grace below).
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

// claimExpired reports whether a claim's lease has lapsed. A zero
// LeaseUntil (claim body not yet written, or unparseable) gets a TTL of
// grace from the file's mtime before it counts as expired.
func (l *journal) claimExpired(c claimRecord, grace time.Duration, now time.Time) bool {
	if !c.LeaseUntil.IsZero() {
		return now.After(c.LeaseUntil)
	}
	st, err := os.Stat(l.claimPath(c.ID))
	if err != nil {
		return false
	}
	return now.After(st.ModTime().Add(grace))
}

// liveClaims lists every claim on disk.
func (l *journal) liveClaims() []claimRecord {
	ents, err := os.ReadDir(l.claimsDir())
	if err != nil {
		return nil
	}
	var out []claimRecord
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".claim") {
			continue
		}
		id := strings.TrimSuffix(name, ".claim")
		if c, ok := l.claimState(id); ok {
			out = append(out, c)
		}
	}
	return out
}

// reapExpiredClaims removes claims whose lease has lapsed, except those
// of owner spare (a live owner in the caller's own process), and returns
// the affected job IDs. Removing the claim is the whole requeue: a
// non-terminal record with no claim is claimable again. One process
// reaps a journal — the fleet coordinator when one owns it, the
// frontend's watcher otherwise — which keeps the check-then-remove
// window away from the many-workers path (a live owner that was wrongly
// reaped discovers it at its next renewClaim and abandons the run
// instead of split-braining).
func (l *journal) reapExpiredClaims(grace time.Duration, spare string) []string {
	now := time.Now().UTC()
	var reaped []string
	for _, c := range l.liveClaims() {
		if (spare != "" && c.Owner == spare) || !l.claimExpired(c, grace, now) {
			continue
		}
		if err := os.Remove(l.claimPath(c.ID)); err == nil {
			reaped = append(reaped, c.ID)
		}
	}
	return reaped
}

// --- Cancel markers ---

// markCancel requests cancellation of a job some worker currently owns:
// the marker file is the frontend-to-worker signal (checked on every
// heartbeat), since job contexts do not cross process boundaries.
func (l *journal) markCancel(id string) error {
	if err := os.MkdirAll(l.cancelsDir(), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(l.cancelsDir(), fsutil.Sanitize(id)), nil, 0o644)
}

// cancelRequested reports whether a cancel marker exists for the job.
func (l *journal) cancelRequested(id string) bool {
	_, err := os.Stat(filepath.Join(l.cancelsDir(), fsutil.Sanitize(id)))
	return err == nil
}

// clearCancel removes a consumed (or obsolete) cancel marker.
func (l *journal) clearCancel(id string) {
	os.Remove(filepath.Join(l.cancelsDir(), fsutil.Sanitize(id)))
}

// --- Worker heartbeats ---

// workerState is a worker process's heartbeat document: liveness (the
// coordinator stops a worker whose UpdatedAt goes stale), current
// occupancy (busy or idle, and the claimed job), and cumulative
// throughput counters (per-worker jobs/sims for /api/v1/fleet and
// /metrics).
type workerState struct {
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
func (l *journal) putWorker(w workerState) {
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

// removeWorker retires a worker's heartbeat file (graceful exit, or the
// coordinator sweeping a dead worker).
func (l *journal) removeWorker(owner string) {
	os.Remove(l.workerPath(owner))
}

// loadWorkers reads every parseable worker heartbeat.
func (l *journal) loadWorkers() []workerState {
	ents, err := os.ReadDir(l.workersDir())
	if err != nil {
		return nil
	}
	var out []workerState
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(l.workersDir(), name))
		if err != nil {
			continue
		}
		var w workerState
		if err := json.Unmarshal(buf, &w); err != nil || w.Owner == "" {
			continue
		}
		out = append(out, w)
	}
	return out
}
