package serve_test

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// overlapScale is a parametric fig14 scale of sim measured instructions:
// each job at a fresh one misses every cache, so it must simulate.
func overlapScale(sim int) string {
	return fmt.Sprintf("custom:warmup=1000,sim=%d,tracelen=20000,wps=1,mixes=1", sim)
}

// TestOverlappingJobsCountOwnSims: jobs that overlap in one process each
// report the simulations they launched, not the process's. Two servers
// share the process's harness environment over journals and stores of
// their own, as perfbench's set-ups overlap its timed service. A fig14
// job run alone at a fresh scale launches K sims; four more, two per
// server and launched together so the two workers run at once, must each
// report exactly K, and together the process-wide count's growth.
func TestOverlappingJobsCountOwnSims(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	var bases []string
	for range 2 {
		srv, err := serve.New(serve.Config{
			Store:            results.Open(t.TempDir()),
			QueueDepth:       4,
			ProgressInterval: 10 * time.Millisecond,
			JournalDir:       t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, newHTTPServer(t, srv))
	}

	lone, code := postRun(t, bases[0], "fig14", overlapScale(300_000))
	if code != http.StatusAccepted {
		t.Fatalf("POST lone job = %d", code)
	}
	done := waitDone(t, bases[0], lone.ID)
	if done.Status != serve.StatusDone || done.Sims == 0 {
		t.Fatalf("lone job ended %q with %d sims (%s)", done.Status, done.Sims, done.Error)
	}
	k := done.Sims

	startSims := harness.SimCount()
	type launched struct{ base, id string }
	var jobs []launched
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := bases[i%2]
			j, code := postRun(t, base, "fig14", overlapScale(300_001+i))
			if code != http.StatusAccepted {
				t.Errorf("POST job %d = %d", i, code)
				return
			}
			mu.Lock()
			jobs = append(jobs, launched{base, j.ID})
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	var sum int64
	for _, j := range jobs {
		v := waitDone(t, j.base, j.id)
		if v.Status != serve.StatusDone {
			t.Errorf("%s ended %q (%s), want done", j.id, v.Status, v.Error)
		}
		if v.Sims != k {
			t.Errorf("%s reports %d sims, want %d (the lone job's count)", j.id, v.Sims, k)
		}
		sum += v.Sims
	}
	if delta := harness.SimCount() - startSims; sum != delta {
		t.Errorf("jobs report %d sims in all, the process ran %d", sum, delta)
	}
}
