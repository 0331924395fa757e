package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pythia/internal/harness"
)

// TestRemoveCleansClaimAndCancelLitter: opening a journal removes the
// claims/ and workers/ directories that journals written before the
// journal lock kept, and remove deletes a job's record.
func TestRemoveCleansClaimAndCancelLitter(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"claims/job-1.claim", "workers/pid1-00000000000000aa.json"} {
		p := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	for _, sub := range []string{"claims", "workers"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Errorf("%s/ survived openJournal (stat: %v)", sub, err)
		}
	}

	jl.put(jobRecord{ID: "job-1", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusQueued, CreatedAt: time.Now().UTC()})
	if recs := jl.load(); len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("load = %+v, want job-1", recs)
	}
	jl.remove("job-1")
	if _, err := os.Stat(jl.path("job-1")); !os.IsNotExist(err) {
		t.Fatal("record survived remove")
	}
}

// TestClaimMutualExclusion: the worker's take and a client's DELETE
// (cancelUser) decide who a just-admitted job belongs to under the job's
// mutex, and exactly one of them wins. A job the cancel won is terminal,
// journaled as canceled, and refused by any later take, so it never
// starts; a job the take won is left to the worker, with its context
// canceled so the run stops at the next chunk boundary.
func TestClaimMutualExclusion(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	exp, ok := harness.ExperimentByID("fig14")
	if !ok {
		t.Fatal("fig14 not registered")
	}
	sc, err := harness.ScaleByName("quick")
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 300
	wins := map[string]int{}
	for i := range rounds {
		spec := jobRecord{ID: fmt.Sprintf("job-%d", i), Kind: KindExperiment, Experiment: exp.ID, Scale: "quick"}
		j := blankJob(context.Background(), jl, spec, sc)
		j.expID, j.title = exp.ID, exp.Title
		j.checkpoint()

		var taken, canceled bool
		// The first two rounds fix the order, so both outcomes are
		// exercised; the rest race the two calls.
		switch i {
		case 0:
			taken = j.take()
			canceled = j.cancelUser()
		case 1:
			canceled = j.cancelUser()
			taken = j.take()
		default:
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(2)
			go func() { defer wg.Done(); <-start; taken = j.take() }()
			go func() { defer wg.Done(); <-start; canceled = j.cancelUser() }()
			close(start)
			wg.Wait()
		}
		if taken == canceled {
			t.Fatalf("round %d: take = %v and cancel-before-take = %v; want exactly one winner", i, taken, canceled)
		}
		if j.ctx.Err() == nil {
			t.Fatalf("round %d: the job's context survived its DELETE", i)
		}

		v := j.view()
		rec := readRecord(t, jl, j.id)
		if canceled {
			wins["cancel"]++
			if v.Status != StatusCanceled || rec.Status != StatusCanceled {
				t.Fatalf("round %d: cancel won, job %q, record %q; want canceled", i, v.Status, rec.Status)
			}
			if j.take() {
				t.Fatalf("round %d: a job canceled before the take was taken afterwards", i)
			}
			continue
		}
		wins["take"]++
		if terminalStatus(v.Status) || rec.Status != StatusQueued {
			t.Fatalf("round %d: take won, job %q, record %q; want the worker to finish a queued job", i, v.Status, rec.Status)
		}
		// The worker ends the taken job; DELETE made that end durable.
		j.finish(nil, false, j.ctx.Err())
		if rec := readRecord(t, jl, j.id); rec.Status != StatusCanceled {
			t.Fatalf("round %d: the taken job was canceled by DELETE but journaled %q", i, rec.Status)
		}
	}
	t.Logf("winners over %d rounds: %v", rounds, wins)
}

// TestMultiWorkerJournalContention: would-be owners race to open one
// journal, round after round. The journal lock lets exactly one of them
// in; every other gets an error naming the directory. Each round's owner
// writes a record and closes, and the next round's owner finds every
// record its predecessors wrote.
func TestMultiWorkerJournalContention(t *testing.T) {
	dir := t.TempDir()
	const rounds, contenders = 20, 6
	for r := range rounds {
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			owners []*journal
			errs   []error
		)
		start := make(chan struct{})
		for range contenders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				jl, err := openJournal(dir)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
					return
				}
				owners = append(owners, jl)
			}()
		}
		close(start)
		wg.Wait()
		if len(owners) != 1 {
			for _, jl := range owners {
				jl.close()
			}
			t.Fatalf("round %d: %d of %d contenders opened the journal, want exactly 1", r, len(owners), contenders)
		}
		for _, err := range errs {
			if !strings.Contains(err.Error(), dir) {
				t.Errorf("round %d: refusal %q does not name the journal %s", r, err, dir)
			}
		}
		jl := owners[0]
		if recs := jl.load(); len(recs) != r {
			t.Errorf("round %d: the owner found %d records, want the %d its predecessors wrote", r, len(recs), r)
		}
		jl.put(jobRecord{ID: fmt.Sprintf("job-%02d", r), Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusQueued, CreatedAt: time.Now().UTC()})
		jl.close()
	}
}

// readRecord reads a job's journal record straight from disk.
func readRecord(t *testing.T, jl *journal, id string) jobRecord {
	t.Helper()
	buf, err := os.ReadFile(jl.path(id))
	if err != nil {
		t.Fatalf("%s has no journal record: %v", id, err)
	}
	var rec jobRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rec
}
