package serve_test

// The in-process half of the chaos suite: named failpoints
// (internal/fault) are armed at every layer the serving path crosses —
// result-store writes, policy-store writes, trace decoding, the journal,
// and the admission window between journal write and queue insert — and
// the tests assert the ISSUE-6 invariants: jobs converge to done or
// permanently-failed, no store file is ever corrupt or partial, and
// /healthz reports degradation truthfully. The process-crash half
// (SIGKILL) lives in chaos_proc_test.go.

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
	"pythia/internal/stream"
)

// auditStoreFiles fails the test if any .json file in dir is not valid
// JSON — the "no corrupt or partial store files, ever" invariant.
// Leftover .tmp files are legal (the stale-temp sweep reclaims them);
// half-written JSON is not.
func auditStoreFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return // store never created: trivially clean
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("unreadable store file %s: %v", e.Name(), err)
			continue
		}
		if !json.Valid(buf) {
			t.Errorf("corrupt store file %s (%d bytes)", e.Name(), len(buf))
		}
	}
}

// health fetches /healthz as a generic map.
func health(t *testing.T, base string) map[string]any {
	t.Helper()
	var h map[string]any
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	return h
}

// sseTypes collects the event types of a finished job's SSE stream.
func sseTypes(t *testing.T, base, id string) []string {
	t.Helper()
	var types []string
	for _, ev := range readSSE(t, base, id) {
		types = append(types, ev.Type)
	}
	return types
}

// TestChaosTransientStoreFaultRetries: a store write that fails once
// with a transient error is retried with backoff, and the job still
// succeeds — attempt two persists the result (the harness's in-memory
// memoization makes the re-compute free).
func TestChaosTransientStoreFaultRetries(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	storeDir := t.TempDir()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(storeDir),
		QueueDepth:  4,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	fault.Enable(results.FPWrite, fault.Spec{
		Err:   fault.Transient(errors.New("injected store outage")),
		Count: 1,
	})
	retriesBefore := metricValue("pythia_serve_retries_total", nil)
	job, code := postRun(t, ts, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := waitDone(t, ts, job.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("job ended %q (%s), want done despite transient store fault", done.Status, done.Error)
	}
	if done.Attempts != 2 {
		t.Errorf("job took %d attempts, want 2 (one fault, one clean retry)", done.Attempts)
	}
	if d := metricValue("pythia_serve_retries_total", nil) - retriesBefore; d < 1 {
		t.Errorf("pythia_serve_retries_total moved by %v, want >= 1", d)
	}
	if got := fault.Trips(results.FPWrite); got != 1 {
		t.Errorf("failpoint tripped %d times, want 1", got)
	}
	// The retry was announced over SSE, and the result did land on disk.
	types := sseTypes(t, ts, job.ID)
	if !slicesContains(types, "retry") {
		t.Errorf("SSE stream %v carries no retry event", types)
	}
	var payload harness.ExperimentPayload
	if !results.Open(storeDir).Get(harness.ExperimentKey("fig14", tinyScale), &payload) {
		t.Error("result not persisted after the retry succeeded")
	}
	auditStoreFiles(t, storeDir)
	if h := health(t, ts); h["ok"] != true {
		t.Errorf("healthz not ok after recovered fault: %v", h)
	}
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestChaosBreakerOpensAndRecovers: a persistently failing store opens
// the circuit breaker; /healthz reports degraded; launches that need a
// write are shed with 503 + Retry-After while store-hit launches and
// direct result reads still succeed; once the fault clears and the
// cooldown elapses, a probe job closes the breaker.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	storeDir := t.TempDir()
	cooldown := 1500 * time.Millisecond
	srv, err := serve.New(serve.Config{
		Store:           results.Open(storeDir),
		QueueDepth:      4,
		BreakerCooldown: cooldown,
		ExtraScales:     map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	// Seed the store while healthy so degraded mode has a hit to serve.
	seeded, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST seed = %d", code)
	}
	if done := waitDone(t, ts, seeded.ID); done.Status != serve.StatusDone {
		t.Fatalf("seed job ended %q (%s)", done.Status, done.Error)
	}

	// Persistent store failure: the next job burns its attempt budget
	// (threshold-many consecutive persist failures) and opens the breaker
	// — but the client still gets its table (delivery beats persistence).
	fault.Enable(results.FPWrite, fault.Spec{Err: fault.Transient(errors.New("injected persistent outage"))})
	broken, code := postRun(t, ts, "table4", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if done := waitDone(t, ts, broken.ID); done.Status != serve.StatusDone || done.Result == nil {
		t.Fatalf("persist-failed job ended %q (result %v), want done with a delivered table", done.Status, done.Result != nil)
	}
	opened := time.Now()

	h := health(t, ts)
	if h["ok"] != false || h["degraded"] != true {
		t.Fatalf("healthz after breaker opened: ok=%v degraded=%v, want false/true", h["ok"], h["degraded"])
	}

	// A launch that needs a fresh simulation is shed with Retry-After...
	body := strings.NewReader(`{"experiment": "table7", "scale": "tiny"}`)
	resp, err := http.Post(ts+"/api/v1/runs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 carries no Retry-After header")
	}

	// ...but a store hit is still admitted and served, and the direct
	// read path works: degraded is read-only, not down.
	hit, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("store-hit POST while degraded = %d, want 202", code)
	}
	if done := waitDone(t, ts, hit.ID); done.Status != serve.StatusDone || !done.Cached {
		t.Fatalf("store-hit job while degraded: status %q cached %v", done.Status, done.Cached)
	}
	if code := getJSON(t, ts+"/api/v1/results/table2?scale=tiny", nil); code != http.StatusOK {
		t.Errorf("GET stored result while degraded = %d", code)
	}

	// Fault clears, cooldown elapses: the next write-needing launch is
	// the half-open probe; its successful persist closes the breaker.
	fault.Disable(results.FPWrite)
	time.Sleep(cooldown - time.Since(opened) + 100*time.Millisecond)
	probe, code := postRun(t, ts, "table7", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("probe POST after cooldown = %d, want 202", code)
	}
	if done := waitDone(t, ts, probe.ID); done.Status != serve.StatusDone {
		t.Fatalf("probe job ended %q (%s)", done.Status, done.Error)
	}
	h = health(t, ts)
	if h["ok"] != true || h["degraded"] != false {
		t.Errorf("healthz after recovery: ok=%v degraded=%v, want true/false", h["ok"], h["degraded"])
	}
	auditStoreFiles(t, storeDir)
}

// TestChaosPolicyBreakerShedsTraining: the policy store has its own
// breaker; persistent policy-write failures shed new training jobs with
// Retry-After while experiment jobs are unaffected.
func TestChaosPolicyBreakerShedsTraining(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	srv, err := serve.New(serve.Config{
		Store:           results.Open(t.TempDir()),
		Policies:        policy.Open(t.TempDir()),
		QueueDepth:      4,
		BreakerCooldown: time.Minute,
		ExtraScales:     map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	fault.Enable(policy.FPWrite, fault.Spec{Err: fault.Transient(errors.New("injected policy outage"))})
	launch := func() (serve.JobView, *http.Response) {
		body := strings.NewReader(`{"train": {"workload": "459.GemsFDTD-100B", "config": "pythia"}, "scale": "tiny"}`)
		resp, err := http.Post(ts+"/api/v1/runs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Job serve.JobView `json:"job"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return out.Job, resp
	}
	job, resp := launch()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST train = %d", resp.StatusCode)
	}
	// The trained policy is still delivered; the persist failures open
	// the policy breaker.
	if done := waitDone(t, ts, job.ID); done.Status != serve.StatusDone || done.Policy == nil {
		t.Fatalf("train job under policy faults ended %q (policy %v)", done.Status, done.Policy != nil)
	}
	if _, resp := launch(); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("train POST with open policy breaker = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Experiment jobs ride an independent breaker: unaffected.
	exp, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("experiment POST with open policy breaker = %d", code)
	}
	if done := waitDone(t, ts, exp.ID); done.Status != serve.StatusDone {
		t.Fatalf("experiment job ended %q (%s)", done.Status, done.Error)
	}
}

// TestChaosDecodeFaultFailsPermanently: an injected trace-decode fault
// is a permanent failure — the job errors on its first attempt (no
// retry: the same file would fail the same way), the service stays
// healthy, and no partial store file appears.
func TestChaosDecodeFaultFailsPermanently(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	harness.SetTraceCacheDir(t.TempDir())
	defer harness.SetTraceCacheDir("")
	storeDir := t.TempDir()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(storeDir),
		QueueDepth:  4,
		ExtraScales: map[string]harness.Scale{"tinystream": tinyStreamScale, "tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	// Skip a few hundred records so the cut lands mid-stream, then
	// corrupt every decode.
	disable := fault.Enable(stream.FPDecode, fault.Spec{Skip: 500})
	job, code := postRun(t, ts, "fig14", "tinystream")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := waitDone(t, ts, job.ID)
	if done.Status != serve.StatusError {
		t.Fatalf("decode-fault job ended %q, want error", done.Status)
	}
	if done.Attempts != 1 {
		t.Errorf("permanent failure took %d attempts, want 1 (no retry)", done.Attempts)
	}
	if types := sseTypes(t, ts, job.ID); slicesContains(types, "retry") {
		t.Errorf("permanent failure produced a retry event: %v", types)
	}
	disable()

	auditStoreFiles(t, storeDir)
	if h := health(t, ts); h["ok"] != true {
		t.Errorf("healthz after permanent job failure: %v", h)
	}
	next, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after failure = %d", code)
	}
	if done := waitDone(t, ts, next.ID); done.Status != serve.StatusDone {
		t.Fatalf("job after failure ended %q (%s)", done.Status, done.Error)
	}
}

// TestChaosAdmitCrashRecovered drives the widest at-least-once window:
// the server "crashes" (injected panic) after journaling an admission
// but before the queue insert. The client gets an error, yet the job is
// journaled — a rebuilt server over the same journal requeues and
// completes it.
func TestChaosAdmitCrashRecovered(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	journalDir := t.TempDir()
	storeDir := t.TempDir()
	mk := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Store:       results.Open(storeDir),
			QueueDepth:  4,
			JournalDir:  journalDir,
			ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srvA := mk()
	// net/http recovers handler panics; silence its log of the injected one.
	tsA := httptest.NewUnstartedServer(srvA.Handler())
	tsA.Config.ErrorLog = log.New(io.Discard, "", 0)
	tsA.Start()

	fault.Enable(serve.FPAdmitCrash, fault.Spec{Mode: fault.ModePanic})
	body := strings.NewReader(`{"experiment": "table4", "scale": "tiny"}`)
	if resp, err := http.Post(tsA.URL+"/api/v1/runs", "application/json", body); err == nil {
		// The handler died mid-admission; any response is server-side noise.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fault.Disable(serve.FPAdmitCrash)
	tsA.Close()
	srvA.Close()

	// The crash window left a journaled-but-unqueued job behind.
	ents, err := os.ReadDir(journalDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no journal record survived the admission crash (err %v)", err)
	}

	recoveredBefore := metricValue("pythia_serve_journal_recovered_total", nil)
	requeuesBefore := metricValue("pythia_serve_requeues_total", nil)
	srvB := mk()
	tsB := newHTTPServer(t, srvB)
	if d := metricValue("pythia_serve_journal_recovered_total", nil) - recoveredBefore; d < 1 {
		t.Errorf("pythia_serve_journal_recovered_total moved by %v, want >= 1", d)
	}
	if d := metricValue("pythia_serve_requeues_total", nil) - requeuesBefore; d < 1 {
		t.Errorf("pythia_serve_requeues_total moved by %v, want >= 1", d)
	}
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	getJSON(t, tsB+"/api/v1/runs", &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("recovered server lists %d jobs, want 1", len(list.Jobs))
	}
	ghost := list.Jobs[0]
	if !ghost.Recovered {
		t.Error("requeued job not marked recovered")
	}
	if done := waitDone(t, tsB, ghost.ID); done.Status != serve.StatusDone {
		t.Fatalf("recovered ghost job ended %q (%s), want done", done.Status, done.Error)
	}
	auditStoreFiles(t, storeDir)
}

// TestChaosJournalWriteFaultIsBestEffort: journal-write failures never
// fail jobs — the job completes, durability is what degrades, and
// /healthz counts the lost writes.
func TestChaosJournalWriteFaultIsBestEffort(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  4,
		JournalDir:  t.TempDir(),
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	fault.Enable(serve.FPJournalWrite, fault.Spec{Err: fault.Transient(errors.New("injected journal outage"))})
	job, code := postRun(t, ts, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if done := waitDone(t, ts, job.ID); done.Status != serve.StatusDone {
		t.Fatalf("job under journal faults ended %q (%s), want done", done.Status, done.Error)
	}
	h := health(t, ts)
	jn, ok := h["journal"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no journal section: %v", h)
	}
	if n, _ := jn["write_errors"].(float64); n == 0 {
		t.Error("journal write failures not counted in /healthz")
	}
}
