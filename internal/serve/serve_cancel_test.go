package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

// newHTTPServer mounts an already-configured Server on a test listener
// and returns its base URL (newTestServer builds the Server too; tests
// that need custom scales build their own).
func newHTTPServer(t *testing.T, srv *serve.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// tinyStreamScale mirrors tinyScale but delivers traces through the
// streaming pipeline, so a corrupted trace-cache file is actually read
// mid-run.
var tinyStreamScale = harness.Scale{
	Warmup: 50_000, Sim: 200_000, TraceLen: 40_000,
	WorkloadsPerSuite: 1, HeteroMixes: 1, StreamChunk: 1024,
}

func cancelRun(t *testing.T, base, id string) (serve.JobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/api/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Job serve.JobView `json:"job"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.Job, resp.StatusCode
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		var out struct {
			Job serve.JobView `json:"job"`
		}
		getJSON(t, base+"/api/v1/runs/"+id, &out)
		if out.Job.Status != serve.StatusQueued {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestServeSurvivesTraceCacheCorruption is the panic-crash regression
// test: a trace-cache file that corrupts before a streaming run reads it
// used to panic the producer goroutine and kill the whole process. Now
// the decode error flows stream → cpu → harness → serve as a value: only
// that job fails (terminal "error" SSE event with a useful message),
// /healthz stays OK, and the next job runs normally.
func TestServeSurvivesTraceCacheCorruption(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	cacheDir := t.TempDir()
	harness.SetTraceCacheDir(cacheDir)
	defer harness.SetTraceCacheDir("")

	// Populate the cache entry fig14's workload will stream, then truncate
	// its body. The header survives, so the file passes open-time
	// validation and dies mid-decode — the worst-case corruption.
	w, ok := trace.ByName("CC-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	path, err := stream.NewCache(cacheDir).Ensure(context.Background(), w, tinyStreamScale.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header plus a few hundred records: far fewer than the
	// simulation consumes, so the decoder is guaranteed to hit the cut.
	if err := os.WriteFile(path, buf[:512], 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  4,
		ExtraScales: map[string]harness.Scale{"tinystream": tinyStreamScale, "tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	job, code := postRun(t, ts, "fig14", "tinystream")
	if code != http.StatusAccepted {
		t.Fatalf("POST run = %d", code)
	}
	done := waitDone(t, ts, job.ID)
	if done.Status != serve.StatusError {
		t.Fatalf("corrupted-trace job ended %q (error %q), want %q", done.Status, done.Error, serve.StatusError)
	}
	if done.Error == "" {
		t.Fatal("failed job carries no error message")
	}

	// The SSE stream of the failed job ends with a terminal error event.
	evs := readSSE(t, ts, job.ID)
	if lastType(evs) != serve.StatusError {
		t.Errorf("SSE stream of failed job ends with %q", lastType(evs))
	}

	// The process is alive and healthy, and the next job succeeds.
	if code := getJSON(t, ts+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after job failure = %d", code)
	}
	job2, code := postRun(t, ts, "table4", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after failure = %d", code)
	}
	if done2 := waitDone(t, ts, job2.ID); done2.Status != serve.StatusDone {
		t.Fatalf("job after failure ended %q (%s)", done2.Status, done2.Error)
	}
}

// TestServeCancelRunningJob: DELETE on an in-flight long run ends it with
// a terminal "canceled" SSE event promptly, and the freed worker runs
// the next job.
func TestServeCancelRunningJob(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  4,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale, "verylong": veryLongScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	job, code := postRun(t, ts, "fig7", "verylong")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitRunning(t, ts, job.ID)

	start := time.Now()
	if _, code := cancelRun(t, ts, job.ID); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	done := waitDone(t, ts, job.ID)
	if done.Status != serve.StatusCanceled {
		t.Fatalf("canceled job ended %q (error %q)", done.Status, done.Error)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	evs := readSSE(t, ts, job.ID)
	if lastType(evs) != serve.StatusCanceled {
		t.Errorf("SSE stream ends with %q, want canceled", lastType(evs))
	}

	// Canceling a terminal job is a conflict, not a crash.
	if _, code := cancelRun(t, ts, job.ID); code != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409", code)
	}

	// The worker is free: a fresh job completes.
	job2, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after cancel = %d", code)
	}
	if done2 := waitDone(t, ts, job2.ID); done2.Status != serve.StatusDone {
		t.Fatalf("job after cancel ended %q (%s)", done2.Status, done2.Error)
	}
}

// veryLongScale keeps a run in flight long enough to cancel it reliably
// while still being CPU-cheap per chunk boundary.
var veryLongScale = harness.Scale{
	Warmup: 100_000, Sim: 2_000_000_000, TraceLen: 100_000,
	WorkloadsPerSuite: 1, HeteroMixes: 1,
}

// TestServeCancelQueuedJob: DELETE on a job still waiting in the queue
// makes it terminal immediately; the worker later discards it without
// running any simulation.
func TestServeCancelQueuedJob(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  4,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale, "verylong": veryLongScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	blocker, code := postRun(t, ts, "fig7", "verylong")
	if code != http.StatusAccepted {
		t.Fatalf("POST blocker = %d", code)
	}
	waitRunning(t, ts, blocker.ID)
	queued, code := postRun(t, ts, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST queued = %d", code)
	}

	v, code := cancelRun(t, ts, queued.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE queued = %d", code)
	}
	if v.Status != serve.StatusCanceled {
		t.Fatalf("queued job after DELETE = %q, want canceled immediately", v.Status)
	}
	if v.Sims != 0 {
		t.Errorf("canceled queued job reports %d sims", v.Sims)
	}

	// Unblock the worker and confirm it survives draining the canceled
	// job.
	cancelRun(t, ts, blocker.ID)
	waitDone(t, ts, blocker.ID)
	if code := getJSON(t, ts+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}

// TestServeShutdownDrainsQueue: Shutdown with budget left runs every
// queued job to completion and rejects new launches with 503.
func TestServeShutdownDrainsQueue(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  8,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	// table* experiments are simulation-free, so the drain is fast.
	var ids []string
	for _, exp := range []string{"table2", "table4", "table7"} {
		job, code := postRun(t, ts, exp, "tiny")
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d", exp, code)
		}
		ids = append(ids, job.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv.Shutdown(ctx)

	for _, id := range ids {
		var out struct {
			Job serve.JobView `json:"job"`
		}
		getJSON(t, ts+"/api/v1/runs/"+id, &out)
		if out.Job.Status != serve.StatusDone {
			t.Errorf("job %s ended %q after graceful shutdown, want done", id, out.Job.Status)
		}
	}
	if _, code := postRun(t, ts, "table2", "tiny"); code != http.StatusServiceUnavailable {
		t.Errorf("launch after shutdown = %d, want 503", code)
	}
}

// TestCancelStartRace: DELETEs race the worker's take of just-admitted
// jobs, round after round, at a fresh fig14 scale each time. The client
// does not wait for a job to end before it launches the next, so each
// DELETE lands while the worker is winding down the previous job, taking
// this one, or running it. The job's mutex decides each race: every job
// ends with exactly one terminal record, no job executes twice (the
// process ran exactly the sims the jobs report), and a job canceled
// before the worker took it (it names no worker) reports sims: 0 and
// writes no result. The chaos tier runs it under -race.
func TestCancelStartRace(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := t.TempDir()
	store := results.Open(t.TempDir())
	srv, err := serve.New(serve.Config{
		Store:      store,
		QueueDepth: 64,
		JournalDir: journalDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	const rounds = 100
	start := harness.SimCount()
	scales := map[string]string{}
	var ids []string
	for i := range rounds {
		scale := fmt.Sprintf("custom:warmup=1000,sim=%d,tracelen=20000,wps=1,mixes=1", 20_000+i)
		job, code := postRun(t, ts, "fig14", scale)
		if code != http.StatusAccepted {
			t.Fatalf("round %d: POST = %d", i, code)
		}
		scales[job.ID] = scale
		ids = append(ids, job.ID)
		// Vary the DELETE's lag behind the admission so both sides win.
		time.Sleep(time.Duration(i%4) * 200 * time.Microsecond)
		if _, code := cancelRun(t, ts, job.ID); code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("round %d: DELETE = %d", i, code)
		}
	}

	var reported int64
	outcomes := map[string]int{}
	for _, id := range ids {
		v := waitDone(t, ts, id)
		reported += v.Sims
		sc, err := harness.ScaleByName(scales[id])
		if err != nil {
			t.Fatal(err)
		}
		stored := store.Has(harness.ExperimentKey("fig14", sc))
		switch {
		case v.Status == serve.StatusDone:
			outcomes["done"]++
			if !stored {
				t.Errorf("%s done without a stored result", id)
			}
		case v.Status != serve.StatusCanceled:
			t.Errorf("%s ended %q (%s), want done or canceled", id, v.Status, v.Error)
		case v.Worker == "":
			outcomes["canceled before the take"]++
			if v.Sims != 0 || stored {
				t.Errorf("%s canceled before the take reports %d sims, stored result %v; want 0, false",
					id, v.Sims, stored)
			}
		default:
			outcomes["canceled after the take"]++
			if stored {
				t.Errorf("%s canceled after the take wrote a result", id)
			}
		}

		buf, err := os.ReadFile(filepath.Join(journalDir, id+".json"))
		if err != nil {
			t.Fatalf("%s has no journal record: %v", id, err)
		}
		var rec struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(buf, &rec); err != nil || rec.Status != v.Status {
			t.Errorf("%s journal record says %q (err %v), the job %q", id, rec.Status, err, v.Status)
		}
	}
	if ran := harness.SimCount() - start; ran != reported {
		t.Errorf("the process ran %d sims, the jobs report %d: a job executed twice or uncounted", ran, reported)
	}
	t.Logf("outcomes over %d rounds: %v", rounds, outcomes)
}
