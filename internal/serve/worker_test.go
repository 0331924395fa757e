package serve

// Multi-worker journal contention: several workers drain one journal
// concurrently (run under -race in CI). The claim protocol must hand
// each job to exactly one worker — proven by attempt counts, by the
// global simulation counter, and by a second pass over identical specs
// costing zero simulations (the content-addressed store would not dedupe
// a job that ran twice under different owners into extra work, but a
// duplicated *first* pass would inflate the sim delta).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/harness"
	"pythia/internal/results"
)

// seedQueuedJobs queues n fig14 jobs from job-firstID on, the i-th at a
// parametric scale of sim0+i measured instructions.
func seedQueuedJobs(jl *journal, firstID, n, sim0 int) {
	now := time.Now().UTC()
	for i := 0; i < n; i++ {
		// Unique parametric scales: distinct store fingerprints, no
		// ExtraScales table to ship to the workers.
		scale := fmt.Sprintf("custom:warmup=100,sim=%d,tracelen=1000,wps=1,mixes=1", sim0+i)
		jl.put(jobRecord{
			ID: fmt.Sprintf("job-%d", firstID+i), Kind: KindExperiment,
			Experiment: "fig14", Scale: scale,
			Status: StatusQueued, CreatedAt: now,
		})
	}
}

func drainWithWorkers(t *testing.T, jl *journal, store *results.Store, workers int) int64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := RunWorker(ctx, WorkerConfig{
				Store:             store,
				JournalDir:        jl.dir,
				Label:             fmt.Sprintf("w%d", i),
				PollInterval:      5 * time.Millisecond,
				HeartbeatInterval: 50 * time.Millisecond,
				ProgressInterval:  20 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			completed.Add(n)
		}(i)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		done := true
		for _, rec := range jl.load() {
			if !terminalStatus(rec.Status) {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	return completed.Load()
}

func TestMultiWorkerJournalContention(t *testing.T) {
	jl := testJournal(t)
	store := results.Open(t.TempDir())
	const jobs, workers = 6, 3

	seedQueuedJobs(jl, 1, jobs, 2000)
	startSims := harness.SimCount()
	completed := drainWithWorkers(t, jl, store, workers)
	firstPassSims := harness.SimCount() - startSims

	if completed != jobs {
		t.Errorf("workers report %d completed jobs, want %d (duplicate or lost execution)", completed, jobs)
	}
	recs := jl.load()
	if len(recs) != jobs {
		t.Fatalf("journal holds %d records, want %d", len(recs), jobs)
	}
	owners := map[string]bool{}
	for _, rec := range recs {
		if rec.Status != StatusDone {
			t.Errorf("%s ended %q (%s), want done", rec.ID, rec.Status, rec.Error)
		}
		if rec.Attempts != 1 {
			t.Errorf("%s has %d attempts, want exactly 1 (claim protocol leaked an execution)", rec.ID, rec.Attempts)
		}
		if rec.Sims == 0 {
			t.Errorf("%s reports zero simulations", rec.ID)
		}
		if rec.Owner == "" {
			t.Errorf("%s has no owner recorded", rec.ID)
		} else {
			owners[rec.Owner] = true
		}
	}
	if len(owners) < 2 {
		t.Logf("note: all %d jobs landed on %d worker(s) — legal, but the race got no exercise", jobs, len(owners))
	}
	if firstPassSims == 0 {
		t.Fatal("first pass executed zero simulations")
	}

	// Second pass: identical specs under fresh IDs must be pure store
	// hits — zero new simulations proves the first pass both persisted
	// everything and never ran a job twice under racing owners (a
	// double-run would have shown up as extra sims above the single-run
	// cost, which the repeat pass pins down).
	seedQueuedJobs(jl, jobs+1, jobs, 2000)
	startSims = harness.SimCount()
	if completed := drainWithWorkers(t, jl, store, workers); completed != jobs {
		t.Errorf("second pass completed %d jobs, want %d", completed, jobs)
	}
	if d := harness.SimCount() - startSims; d != 0 {
		t.Errorf("second pass over cached specs executed %d simulations, want 0", d)
	}
	for _, rec := range jl.load() {
		if jobIDNum(rec.ID) > jobs && !rec.Cached {
			t.Errorf("%s not marked cached on the repeat pass", rec.ID)
		}
	}
}

// TestOverlappingJobsCountOwnSims: jobs that overlap in one process each
// report the simulations they launched, not the process's. A fig14 job
// drained alone at a fresh scale launches K sims; four more, drained by
// two in-process workers at fresh scales of their own, must each report
// exactly K, and together the process-wide count's growth.
func TestOverlappingJobsCountOwnSims(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	jl := testJournal(t)
	store := results.Open(t.TempDir())

	seedQueuedJobs(jl, 1, 1, 3000)
	drainWithWorkers(t, jl, store, 1)
	recs := jl.load()
	if len(recs) != 1 || recs[0].Status != StatusDone || recs[0].Sims == 0 {
		t.Fatalf("lone job: %+v", recs)
	}
	k := recs[0].Sims

	seedQueuedJobs(jl, 2, 4, 3001)
	startSims := harness.SimCount()
	drainWithWorkers(t, jl, store, 2)
	delta := harness.SimCount() - startSims

	var sum int64
	for _, rec := range jl.load() {
		if rec.ID == "job-1" {
			continue
		}
		if rec.Status != StatusDone {
			t.Errorf("%s ended %q (%s), want done", rec.ID, rec.Status, rec.Error)
		}
		if rec.Sims != k {
			t.Errorf("%s reports %d sims, want %d (the lone job's count)", rec.ID, rec.Sims, k)
		}
		sum += rec.Sims
	}
	if sum != delta {
		t.Errorf("jobs report %d sims in all, the process ran %d", sum, delta)
	}
}
