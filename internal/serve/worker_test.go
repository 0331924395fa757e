package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

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
			Store:      results.Open(t.TempDir()),
			QueueDepth: 4,
			JournalDir: t.TempDir(),
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

// TestLiveProgressCountsOwnSims: a live SSE subscriber to a fresh-scale
// fig14 job sees progress that never decreases and ends at the job's
// terminal sims, while a second server in the process runs a fig14 job
// of its own at the same time. Progress is published from the
// simulation goroutines as each of the job's simulations starts, so the
// other job's simulations must not show up in it: the two jobs report
// the same count, and together the process-wide count's growth.
func TestLiveProgressCountsOwnSims(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	startSims := harness.SimCount()
	var bases, ids []string
	for i := range 2 {
		srv, err := serve.New(serve.Config{
			Store:      results.Open(t.TempDir()),
			QueueDepth: 4,
			JournalDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		base := newHTTPServer(t, srv)
		j, code := postRun(t, base, "fig14", overlapScale(2_000_000+i))
		if code != http.StatusAccepted {
			t.Fatalf("POST job %d = %d", i, code)
		}
		bases, ids = append(bases, base), append(ids, j.ID)
	}

	var sims []int64
	for i, base := range bases {
		var progress []int64
		var final serve.JobView
		for _, ev := range readSSE(t, base, ids[i]) {
			switch ev.Type {
			case "progress":
				var p struct {
					Sims int64 `json:"sims"`
				}
				if err := json.Unmarshal(ev.Data, &p); err != nil {
					t.Fatal(err)
				}
				progress = append(progress, p.Sims)
			case serve.StatusDone, serve.StatusError, serve.StatusCanceled:
				if err := json.Unmarshal(ev.Data, &final); err != nil {
					t.Fatal(err)
				}
			}
		}
		if final.Status != serve.StatusDone || final.Cached || final.Sims == 0 {
			t.Fatalf("job %d ended %q, cached %v, with %d sims (%s); want done, uncached, sims > 0",
				i, final.Status, final.Cached, final.Sims, final.Error)
		}
		if len(progress) == 0 {
			t.Fatalf("job %d: no progress events", i)
		}
		for k := 1; k < len(progress); k++ {
			if progress[k] < progress[k-1] {
				t.Errorf("job %d: progress went backwards: %v", i, progress)
				break
			}
		}
		if last := progress[len(progress)-1]; last != final.Sims {
			t.Errorf("job %d: last progress %d, terminal sims %d (progress %v)", i, last, final.Sims, progress)
		}
		t.Logf("job %d: progress %v, terminal sims %d", i, progress, final.Sims)
		sims = append(sims, final.Sims)
	}
	if sims[0] != sims[1] {
		t.Errorf("the two jobs report %d and %d sims, want equal counts", sims[0], sims[1])
	}
	if delta := harness.SimCount() - startSims; sims[0]+sims[1] != delta {
		t.Errorf("jobs report %d sims in all, the process ran %d", sims[0]+sims[1], delta)
	}
}
