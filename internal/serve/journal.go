package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pythia/internal/fault"
	"pythia/internal/fsutil"
)

// FPJournalWrite is the failpoint at the head of every journal write;
// chaos tests arm it to prove the journal degrades to best-effort (jobs
// still execute, durability is lost, /healthz counts the failures)
// rather than failing admissions.
const FPJournalWrite = "serve.journal-write"

// FPAdmitCrash sits between the admission journal write and the job's
// registration — the widest at-least-once window. A crash there leaves
// a journaled job no worker was handed; recovery must requeue it even
// though the client saw an error (the store's content addressing makes
// the re-execution idempotent).
const FPAdmitCrash = "serve.admit-crash"

// jobRecord is the on-disk journal document for one job: the spec
// (enough to rebuild the job after a restart) plus its latest state
// transition. One file per job, landed via fsutil.WriteAtomic, so a
// crash never leaves a half-written record — the previous state simply
// survives.
type jobRecord struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Experiment identifies an experiment job's target.
	Experiment string `json:"experiment,omitempty"`
	// Workload and Config identify a train job's target.
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	// Scale is the scale *name*; recovery resolves it as admission did
	// (Server.newJob), so custom scales survive restarts as long as the
	// server is rebuilt with the same ExtraScales.
	Scale string `json:"scale"`

	Status string `json:"status"`
	// Attempts counts the times the job entered execution, transient
	// retries included. It survives restarts, so the worker abandons a
	// requeued job that already used up the attempt budget (maxAttempts)
	// instead of running it again: a job that crashes the server cannot
	// crash-loop it forever.
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Owner labels the process that ran the job ("pid<PID>"), shown as
	// the job's worker. Nothing decides anything by it: the journal lock
	// already makes one process the journal's only writer.
	Owner string `json:"owner,omitempty"`
	// Sims and Cached mirror the job's outcome; PolicyID names a finished
	// training job's artifact in the policy store.
	Sims     int64  `json:"sims,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	PolicyID string `json:"policy_id,omitempty"`

	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// journal persists job records, one file per job, in a directory that
// one process owns at a time: openJournal takes an exclusive flock on
// <dir>/LOCK and close releases it, as the kernel does when the process
// dies. So the server holding the lock is the journal's only reader and
// writer, and every non-terminal record it finds at open belongs to a
// process that is gone. All writes are best-effort: losing a journal
// write loses durability for that transition, never the job itself —
// writeErrs counts the losses for /healthz.
type journal struct {
	dir       string
	lock      *os.File
	writeErrs atomic.Int64
}

// openJournal locks dir, sweeps its stale temps and removes the claims/
// and workers/ directories that journals written before the lock kept
// for cross-process arbitration. A journal another live process holds
// is an error naming the directory.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("serve: journal %s is held by another process: %w", dir, err)
	}
	fsutil.SweepStaleTemps(dir)
	os.RemoveAll(filepath.Join(dir, "claims"))
	os.RemoveAll(filepath.Join(dir, "workers"))
	return &journal{dir: dir, lock: lock}, nil
}

// close releases the journal lock: closing the descriptor drops the
// flock. Closing twice is harmless.
func (l *journal) close() {
	l.lock.Close()
}

func (l *journal) path(id string) string {
	return filepath.Join(l.dir, fsutil.Sanitize(id)+".json")
}

// put lands a record on disk (best-effort; see journal doc).
func (l *journal) put(rec jobRecord) {
	rec.UpdatedAt = time.Now().UTC()
	err := fault.Hit(FPJournalWrite)
	if err == nil {
		err = fsutil.WriteAtomic(l.dir, l.path(rec.ID), fsutil.WriteJSON(&rec))
	}
	if err != nil {
		l.writeErrs.Add(1)
	}
}

// remove deletes a job's record (evicted from history, or refused at
// admission).
func (l *journal) remove(id string) {
	os.Remove(l.path(id))
}

// load reads every parseable record, in job-ID order. Unreadable files
// are skipped, not errors: the journal is an optimization over losing
// all state, and a corrupt record (which WriteAtomic makes near
// impossible) must not take the server down with it.
func (l *journal) load() []jobRecord {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	var recs []jobRecord
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(buf, &rec); err != nil || rec.ID == "" {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return jobIDNum(recs[i].ID) < jobIDNum(recs[j].ID) })
	return recs
}

// jobIDNum extracts the numeric suffix of a "job-N" ID (0 when the ID
// does not match, which sorts unknown IDs first and never collides with
// minted ones: nextID resumes past the maximum).
func jobIDNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

// record snapshots a job into its journal document. Callers must hold
// j.mu (or own the job exclusively, as construction does).
func (j *job) recordLocked() jobRecord {
	rec := jobRecord{
		ID:         j.id,
		Kind:       j.kind,
		Experiment: j.expID,
		Scale:      j.scaleName,
		Status:     j.status,
		Attempts:   j.attempts,
		Error:      j.errMsg,
		Owner:      j.owner,
		Sims:       j.sims,
		Cached:     j.cached,
		CreatedAt:  j.created,
	}
	if j.kind == KindTrain {
		rec.Workload = j.train.Workload.Name
		rec.Config = j.train.Config.Name
	}
	if j.policyMeta != nil {
		rec.PolicyID = j.policyMeta.ID
	}
	return rec
}

// journalLocked writes the job's current state to its journal. Callers
// must hold j.mu; per-job writes are therefore serialized, so a
// checkpoint can never overwrite a terminal record.
func (j *job) journalLocked() {
	j.jl.put(j.recordLocked())
}
