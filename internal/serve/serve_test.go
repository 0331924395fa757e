package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// tinyScale keeps service tests fast; registered with the server under
// the name "tiny".
var tinyScale = harness.Scale{Warmup: 50_000, Sim: 200_000, TraceLen: 40_000, WorkloadsPerSuite: 1, HeteroMixes: 1}

// slowScale is big enough that a job visibly occupies the executor while
// the queue-rejection test piles more jobs behind it.
var slowScale = harness.Scale{Warmup: 100_000, Sim: 3_000_000, TraceLen: 100_000, WorkloadsPerSuite: 1, HeteroMixes: 1}

func newTestServer(t *testing.T, store *results.Store, queueDepth int) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Store:            store,
		QueueDepth:       queueDepth,
		ProgressInterval: 10 * time.Millisecond,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale, "slow": slowScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// apiClient returns a no-retry typed client for a test server: sheds
// and rejections must surface to the assertion, not be retried away.
func apiClient(base string) *api.Client {
	return api.NewClient(base, api.WithRetries(0))
}

func postRun(t *testing.T, base, exp, scale string) (serve.JobView, int) {
	t.Helper()
	j, err := apiClient(base).Launch(context.Background(), api.LaunchRequest{Experiment: exp, Scale: scale})
	if err != nil {
		var ae *api.Error
		if errors.As(err, &ae) {
			return serve.JobView{}, ae.HTTPStatus
		}
		t.Fatal(err)
	}
	return j, http.StatusAccepted
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// readSSE consumes a job's event stream to completion via the typed
// client's SSE subscription and returns the events in order.
func readSSE(t *testing.T, base, id string) []serve.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var evs []serve.Event
	if _, err := apiClient(base).Events(ctx, id, func(ev serve.Event) {
		evs = append(evs, ev)
	}); err != nil {
		t.Fatalf("events stream for %s: %v", id, err)
	}
	return evs
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) serve.JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := apiClient(base).Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("job %s never finished: %v", id, err)
	}
	return j
}

// TestServeEndToEnd is the acceptance test: an experiment launched over
// HTTP streams progress, returns results, and an identical repeat request
// — after the in-memory caches are wiped and the service is rebuilt over
// the same store directory — is served from the persistent store with
// zero additional simulation work, verified by the run counter.
func TestServeEndToEnd(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	dir := t.TempDir()
	_, ts := newTestServer(t, results.Open(dir), 16)

	// The service knows the paper's experiments.
	var list struct {
		Experiments []struct {
			ID       string `json:"id"`
			Extended bool   `json:"extended"`
		} `json:"experiments"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/experiments", &list); code != http.StatusOK {
		t.Fatalf("GET experiments = %d", code)
	}
	ids := map[string]bool{}
	for _, e := range list.Experiments {
		ids[e.ID] = true
	}
	if !ids["fig14"] || !ids["scorecard"] {
		t.Fatalf("experiment listing incomplete: %v", ids)
	}

	// Launch, then follow the SSE stream to completion.
	job, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST run = %d", code)
	}
	evs := readSSE(t, ts.URL, job.ID)
	var sawQueued, sawRunning, sawProgress bool
	var final serve.JobView
	for _, ev := range evs {
		switch ev.Type {
		case "status":
			var v serve.JobView
			json.Unmarshal(ev.Data, &v)
			sawQueued = sawQueued || v.Status == serve.StatusQueued
			sawRunning = sawRunning || v.Status == serve.StatusRunning
		case "progress":
			sawProgress = true
		case serve.StatusDone, serve.StatusError:
			json.Unmarshal(ev.Data, &final)
		}
	}
	if !sawQueued || !sawRunning || !sawProgress {
		t.Errorf("SSE stream missing lifecycle events: queued=%v running=%v progress=%v", sawQueued, sawRunning, sawProgress)
	}
	if final.Status != serve.StatusDone {
		t.Fatalf("job finished %q (error %q)", final.Status, final.Error)
	}
	if final.Cached {
		t.Error("first run claims a store hit")
	}
	if final.Sims == 0 {
		t.Error("first run reports zero simulations")
	}
	if final.Result == nil || final.Result.Table == nil || len(final.Result.Table.Rows) == 0 {
		t.Fatal("first run returned no table")
	}
	if final.Worker == "" {
		t.Error("finished job names no worker (the serving process's label)")
	}
	firstRendered := final.Rendered

	// The stored result is directly fetchable.
	var fetched struct {
		Rendered string `json:"rendered"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/results/fig14?scale=tiny", &fetched); code != http.StatusOK {
		t.Fatalf("GET stored result = %d", code)
	}
	if fetched.Rendered != firstRendered {
		t.Error("stored result differs from the job's result")
	}

	// Wipe every in-memory cache and rebuild the service over the same
	// store directory: a process restart in miniature. The repeat request
	// must be a store hit with zero additional simulation work.
	harness.ResetCaches()
	_, ts2 := newTestServer(t, results.Open(dir), 16)
	before := harness.SimCount()
	job2, code := postRun(t, ts2.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("repeat POST run = %d", code)
	}
	done := waitDone(t, ts2.URL, job2.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("repeat job finished %q (error %q)", done.Status, done.Error)
	}
	if !done.Cached {
		t.Error("repeat run was not served from the store")
	}
	if done.Sims != 0 {
		t.Errorf("repeat run reports %d simulations, want 0", done.Sims)
	}
	if delta := harness.SimCount() - before; delta != 0 {
		t.Errorf("repeat run executed %d simulations, want 0", delta)
	}
	if done.Rendered != firstRendered {
		t.Error("repeat run's table differs from the original")
	}

	// A late SSE subscriber to the finished job still sees full history.
	evs2 := readSSE(t, ts2.URL, job2.ID)
	if len(evs2) == 0 || evs2[len(evs2)-1].Type != serve.StatusDone {
		t.Errorf("late subscriber got %d events, final %q", len(evs2), lastType(evs2))
	}
}

func lastType(evs []serve.Event) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[len(evs)-1].Type
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)
	if _, code := postRun(t, ts.URL, "fig999", "tiny"); code != http.StatusNotFound {
		t.Errorf("unknown experiment accepted: %d", code)
	}
	if _, code := postRun(t, ts.URL, "fig14", "galactic"); code != http.StatusBadRequest {
		t.Errorf("unknown scale accepted: %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/job-42", nil); code != http.StatusNotFound {
		t.Errorf("unknown job fetch = %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/results/fig14?scale=tiny", nil); code != http.StatusNotFound {
		t.Errorf("unpopulated result fetch = %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}

// TestServeBoundedQueue: with the executor pinned by a slow job and a
// queue of depth 1, a third launch must be rejected with 503 instead of
// queueing unboundedly.
func TestServeBoundedQueue(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newTestServer(t, results.Open(t.TempDir()), 1)

	running, code := postRun(t, ts.URL, "fig7", "slow")
	if code != http.StatusAccepted {
		t.Fatalf("POST slow run = %d", code)
	}
	// Wait for the executor to pick it up so the queue is empty.
	deadline := time.Now().Add(time.Minute)
	for {
		var out struct {
			Job serve.JobView `json:"job"`
		}
		getJSON(t, ts.URL+"/api/v1/runs/"+running.ID, &out)
		if out.Job.Status != serve.StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, code := postRun(t, ts.URL, "fig14", "tiny"); code != http.StatusAccepted {
		t.Fatalf("second run not queued: %d", code)
	}
	body, _ := json.Marshal(api.LaunchRequest{Experiment: "fig1", Scale: "tiny"})
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var envelope api.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("third run got %d, want 503 queue-full", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 503 carries no Retry-After header")
	}
	if envelope.Error.Code != api.CodeQueueFull || !envelope.Error.Retryable {
		t.Errorf("queue-full envelope = %+v, want retryable %s", envelope.Error, api.CodeQueueFull)
	}

	var listing struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/runs", &listing)
	if len(listing.Jobs) != 2 {
		t.Errorf("job listing has %d entries, want 2 (rejected job must not register)", len(listing.Jobs))
	}

	// Let both admitted jobs finish so Close doesn't strand them mid-run.
	waitDone(t, ts.URL, listing.Jobs[0].ID)
	waitDone(t, ts.URL, listing.Jobs[1].ID)
}

// TestServeJobHistoryBounded: finished jobs beyond the history cap are
// evicted at admission, so server memory does not grow with lifetime
// request count. Queued/running jobs are never evicted, and evicted
// results stay fetchable from the store.
func TestServeJobHistoryBounded(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	store := results.Open(t.TempDir())
	srv, err := serve.New(serve.Config{
		Store:            store,
		QueueDepth:       16,
		JobHistory:       2,
		ProgressInterval: 10 * time.Millisecond,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// table* experiments are simulation-free, so each completes quickly.
	for _, exp := range []string{"table2", "table4", "table7", "table8", "table2"} {
		job, code := postRun(t, ts.URL, exp, "tiny")
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d", exp, code)
		}
		waitDone(t, ts.URL, job.ID)
	}

	var listing struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/runs", &listing)
	// Each admission prunes before the new job finishes, so at most
	// JobHistory finished jobs plus the latest one are retained.
	if len(listing.Jobs) > 3 {
		t.Errorf("history retains %d jobs with cap 2", len(listing.Jobs))
	}
	// The earliest job was evicted, but its result survives in the store.
	if code := getJSON(t, ts.URL+"/api/v1/runs/job-1", nil); code != http.StatusNotFound {
		t.Errorf("evicted job still listed: %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/results/table2?scale=tiny", nil); code != http.StatusOK {
		t.Errorf("evicted job's stored result not fetchable: %d", code)
	}
}

// TestServeSurvivesJobLifecycle: the service stays healthy and keeps
// accepting requests after jobs complete (simulation-free experiments
// exercise the instant-completion path).
func TestServeSurvivesJobLifecycle(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)
	job, code := postRun(t, ts.URL, "table4", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := waitDone(t, ts.URL, job.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("table4 job = %q (%s)", done.Status, done.Error)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("service unhealthy after job: %d", code)
	}
}

// TestDispatchQueueDepthCountsQueuedJobs: while the worker is busy with
// a long job, /healthz "queued" and pythia_serve_queue_depth count the
// jobs queued behind it, and the same count is the admission bound.
func TestDispatchQueueDepthCountsQueuedJobs(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       2,
		ProgressInterval: 10 * time.Millisecond,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale, "verylong": veryLongScale},
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
	defer func() {
		cancelRun(t, ts, blocker.ID)
		waitDone(t, ts, blocker.ID)
	}()

	var ids []string
	for _, exp := range []string{"table2", "table4"} {
		job, code := postRun(t, ts, exp, "tiny")
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d", exp, code)
		}
		ids = append(ids, job.ID)
	}
	if q, _ := health(t, ts)["queued"].(float64); q != 2 {
		t.Errorf("healthz queued = %v, want 2", q)
	}
	if d := metricValue("pythia_serve_queue_depth", nil); d != 2 {
		t.Errorf("pythia_serve_queue_depth = %v, want 2", d)
	}
	if _, code := postRun(t, ts, "table7", "tiny"); code != http.StatusServiceUnavailable {
		t.Errorf("launch past the queue bound = %d, want 503", code)
	}

	// A canceled job no longer waits.
	if v, code := cancelRun(t, ts, ids[0]); code != http.StatusOK || v.Status != serve.StatusCanceled {
		t.Fatalf("DELETE queued job = %d, status %q", code, v.Status)
	}
	if q, _ := health(t, ts)["queued"].(float64); q != 1 {
		t.Errorf("healthz queued after cancel = %v, want 1", q)
	}
}

// TestServeProgressNeverRegresses: a single-process job's SSE progress
// never goes backwards while the watcher is reading the journal. The
// worker checkpoints its record on every progress tick, so the record
// always holds some earlier sims count than the job itself.
func TestServeProgressNeverRegresses(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 5 * time.Millisecond,
		ExtraScales:      map[string]harness.Scale{"slow": slowScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	job, code := postRun(t, ts, "fig14", "slow")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	var last int64
	progress := 0
	evs := readSSE(t, ts, job.ID)
	for _, ev := range evs {
		if ev.Type != "progress" {
			continue
		}
		var p struct {
			Sims int64 `json:"sims"`
		}
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Sims < last {
			t.Errorf("progress went backwards: %d after %d", p.Sims, last)
		}
		last = p.Sims
		progress++
	}
	if progress == 0 {
		t.Fatal("no progress events")
	}
	if lastType(evs) != serve.StatusDone {
		t.Fatalf("job ended with %q", lastType(evs))
	}
}
