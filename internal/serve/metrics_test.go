package serve_test

// Telemetry-layer tests: /metrics serves valid Prometheus text covering
// every serve-side family, counters move when jobs run, and the per-job
// stage timeline lands in both job-status JSON and the terminal SSE
// event. Counters on the default registry are process-cumulative (other
// tests in this package bump them too), so every assertion is a delta
// around the work this test performs.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// metricValue reads one metric from the default registry; absent metrics
// read as 0 (a delta against "not yet created" starts at zero).
func metricValue(name string, labels obs.Labels) float64 {
	v, _ := obs.Default().Value(name, labels)
	return v
}

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestMetricsEndpoint: after a real job runs, /metrics exposes the whole
// observability surface — queue gauges, terminal-state and latency
// families, per-store hit/miss counters, simulation throughput, and
// per-route request counts — and the families the job exercised moved.
// Every store's counter series is present whether or not a store of that
// kind has served a lookup yet.
func TestMetricsEndpoint(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newPolicyServer(t, results.Open(t.TempDir()), policy.Open(t.TempDir()))

	doneBefore := metricValue("pythia_serve_jobs_total", obs.L("status", "done"))
	simsBefore := metricValue("pythia_sims_total", nil)
	missBefore := metricValue("pythia_store_misses_total", obs.L("store", "results"))

	job, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if done := waitDone(t, ts.URL, job.ID); done.Status != serve.StatusDone {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}

	if d := metricValue("pythia_serve_jobs_total", obs.L("status", "done")) - doneBefore; d < 1 {
		t.Errorf("jobs_total{status=done} moved by %v, want >= 1", d)
	}
	if d := metricValue("pythia_sims_total", nil) - simsBefore; d < 1 {
		t.Errorf("sims_total moved by %v, want >= 1", d)
	}
	if d := metricValue("pythia_store_misses_total", obs.L("store", "results")) - missBefore; d < 1 {
		t.Errorf("store_misses_total{store=results} moved by %v, want >= 1", d)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"pythia_serve_queue_depth",
		"pythia_serve_queue_capacity",
		`pythia_serve_jobs_total{status="done"}`,
		"pythia_serve_job_duration_seconds_bucket",
		"pythia_serve_queue_wait_seconds_bucket",
		`pythia_store_hits_total{store="results"}`,
		`pythia_store_misses_total{store="results"}`,
		`pythia_store_entries{store="results"}`,
		`pythia_store_writes_total{store="results"}`,
		`pythia_store_hits_total{store="policies"}`,
		`pythia_store_misses_total{store="policies"}`,
		`pythia_store_writes_total{store="policies"}`,
		`pythia_store_entries{store="policies"}`,
		`pythia_store_hits_total{store="trace"}`,
		`pythia_store_misses_total{store="trace"}`,
		`pythia_store_writes_total{store="trace"}`,
		`pythia_serve_breaker_open{store="results"}`,
		"pythia_sims_total",
		"pythia_sim_instructions_total",
		`pythia_http_requests_total{route="POST /api/v1/runs"}`,
		"# TYPE pythia_serve_job_duration_seconds histogram",
		"# HELP pythia_serve_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobTimeline: a fresh job's status JSON carries the full stage
// sequence accepted -> queued -> leased -> streaming -> simulating ->
// persisting -> done with non-negative durations, the terminal SSE event
// carries the same timeline, and a cached repeat of the job skips the
// simulation stages.
func TestJobTimeline(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newTestServer(t, results.Open(t.TempDir()), 8)

	job, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := waitDone(t, ts.URL, job.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}

	var stages []string
	for _, sv := range done.Timeline {
		stages = append(stages, sv.Stage)
		if sv.DurationSeconds < 0 {
			t.Errorf("stage %q has negative duration %v", sv.Stage, sv.DurationSeconds)
		}
		if sv.At.IsZero() {
			t.Errorf("stage %q has zero timestamp", sv.Stage)
		}
	}
	want := []string{"accepted", "queued", "leased", "streaming", "simulating", "persisting", "done"}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("fresh-job timeline = %v, want %v", stages, want)
	}

	// The terminal SSE event carries the same timeline (the stream is the
	// push-side mirror of the status JSON).
	evs := readSSE(t, ts.URL, job.ID)
	if len(evs) == 0 {
		t.Fatal("no SSE events")
	}
	last := evs[len(evs)-1]
	var term serve.JobView
	if err := json.Unmarshal(last.Data, &term); err != nil {
		t.Fatalf("terminal event decode: %v", err)
	}
	if len(term.Timeline) != len(want) {
		t.Errorf("terminal SSE timeline has %d stages, want %d (%v)",
			len(term.Timeline), len(want), term.Timeline)
	}

	// A cached repeat never reaches the harness: no streaming/simulating.
	repeat, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("repeat POST = %d", code)
	}
	rdone := waitDone(t, ts.URL, repeat.ID)
	if rdone.Status != serve.StatusDone || !rdone.Cached {
		t.Fatalf("repeat job: status %q cached %v", rdone.Status, rdone.Cached)
	}
	for _, sv := range rdone.Timeline {
		if sv.Stage == "streaming" || sv.Stage == "simulating" {
			t.Errorf("cached job timeline contains %q: %v", sv.Stage, rdone.Timeline)
		}
	}
}
