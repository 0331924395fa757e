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
	// Scale is the scale *name*; recovery resolves it through the same
	// ExtraScales table as admission, so custom scales survive restarts
	// as long as the server is rebuilt with the same configuration.
	Scale string `json:"scale"`

	Status string `json:"status"`
	// Attempts counts times the job entered execution (dispatches, plus
	// transient retries); recovery refuses jobs that already
	// burned through the attempt budget, so a job that crashes the
	// server cannot crash-loop it forever.
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Owner identifies the worker executing the job (PID + start-time
	// nonce; see NewOwnerID). It is informational — mutual exclusion
	// lives in the claim file (claims.go), whose owner the running worker
	// checks every tick.
	Owner string `json:"owner,omitempty"`
	// Sims and Cached mirror the job's outcome; PolicyID names a finished
	// training job's artifact in the policy store.
	Sims     int64  `json:"sims,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	PolicyID string `json:"policy_id,omitempty"`

	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// journal persists job records, one file per job, in a directory swept
// for stale temps at open. All writes are best-effort: losing a journal
// write loses durability for that transition, never the job itself —
// writeErrs counts the losses for /healthz.
type journal struct {
	dir       string
	writeErrs atomic.Int64
}

func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	fsutil.SweepStaleTemps(dir)
	return &journal{dir: dir}, nil
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

// remove deletes a job's record (evicted from history, or terminal at
// recovery time), along with any claim it left.
func (l *journal) remove(id string) {
	os.Remove(l.path(id))
	os.Remove(l.claimPath(id))
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

// journalLocked writes the job's current state to its journal, unless
// the job was orphaned (its record belongs to another owner now).
// Callers must hold j.mu; per-job writes are therefore serialized, so a
// checkpoint can never overwrite a terminal record.
func (j *job) journalLocked() {
	if !j.orphaned {
		j.jl.put(j.recordLocked())
	}
}
