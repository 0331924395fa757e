package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
	"pythia/internal/results"
)

// fetch returns status, headers and decoded error envelope (if any) for
// a raw request against the test server — wire-level on purpose: these
// tests pin the HTTP contract the typed client builds on.
func fetch(t *testing.T, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return resp, buf
}

// TestEveryShedPathSetsRetryAfter is the regression test for the "all
// 503s carry Retry-After + a retryable envelope" guarantee. Historically
// only some shed paths set the header (queue-full and breaker-degraded
// did, shutdown-drain and missing-subsystem didn't); writeError now
// enforces it centrally, and this test locks each path in.
func TestEveryShedPathSetsRetryAfter(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()

	assert503 := func(t *testing.T, resp *http.Response, body []byte, wantCode string) {
		t.Helper()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s 503 carries no Retry-After header", wantCode)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("503 body is not an error envelope: %v (%s)", err, body)
		}
		if env.Error.Code != wantCode {
			t.Errorf("error code = %q, want %q", env.Error.Code, wantCode)
		}
		if !env.Error.Retryable {
			t.Errorf("%s envelope not marked retryable", wantCode)
		}
		if env.Error.RetryAfterSec < 1 {
			t.Errorf("%s envelope retry_after_sec = %d, want >= 1", wantCode, env.Error.RetryAfterSec)
		}
	}

	t.Run("unavailable_no_policy_store", func(t *testing.T) {
		_, ts := newTestServer(t, results.Open(t.TempDir()), 4)
		resp, body := fetch(t, http.MethodGet, ts.URL+api.Prefix+"/policies", nil)
		assert503(t, resp, body, api.CodeUnavailable)
	})

	t.Run("shutting_down", func(t *testing.T) {
		srv, ts := newTestServer(t, results.Open(t.TempDir()), 4)
		// Park a slow job on the worker so the drain lingers with
		// closing=true, then observe the launch shed during it.
		blocker, code := postRun(t, ts.URL, "fig7", "slow")
		if code != http.StatusAccepted {
			t.Fatalf("blocker not accepted: %d", code)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		deadline := time.Now().Add(30 * time.Second)
		var resp *http.Response
		var body []byte
		for {
			launch, _ := json.Marshal(api.LaunchRequest{Experiment: "fig14", Scale: "tiny"})
			resp, body = fetch(t, http.MethodPost, ts.URL+api.Prefix+"/runs", bytes.NewReader(launch))
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("launch never shed during drain (last status %d)", resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
		}
		assert503(t, resp, body, api.CodeShuttingDown)
		waitDone(t, ts.URL, blocker.ID)
		<-done
	})

	t.Run("queue_full", func(t *testing.T) {
		// The shutting_down subtest just ran the same slow experiment; wipe
		// the in-process caches so the blocker actually occupies the
		// worker instead of finishing instantly from memory.
		harness.ResetCaches()
		_, ts := newTestServer(t, results.Open(t.TempDir()), 1)
		if _, code := postRun(t, ts.URL, "fig7", "slow"); code != http.StatusAccepted {
			t.Fatal("blocker not accepted")
		}
		// Fill the queue, then overflow it; the running blocker may pop the
		// first queued job at any moment, so keep launching until a 503.
		deadline := time.Now().Add(30 * time.Second)
		for {
			launch, _ := json.Marshal(api.LaunchRequest{Experiment: "fig14", Scale: "tiny"})
			resp, body := fetch(t, http.MethodPost, ts.URL+api.Prefix+"/runs", bytes.NewReader(launch))
			if resp.StatusCode == http.StatusServiceUnavailable {
				assert503(t, resp, body, api.CodeQueueFull)
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("queue never overflowed")
			}
		}
	})
}

// TestLegacyAliasesAreGone: the unversioned /api/... aliases finished
// their one-release deprecation window and must now 404 — no handler,
// no Deprecation header, nothing. A client still on them gets an
// unambiguous break, not a silently unversioned contract.
func TestLegacyAliasesAreGone(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)

	job, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("launch = %d", code)
	}
	waitDone(t, ts.URL, job.ID)

	for _, path := range []string{"/experiments", "/runs", "/runs/" + job.ID, "/results/fig14?scale=tiny", "/policies"} {
		v1, _ := fetch(t, http.MethodGet, ts.URL+api.Prefix+path, nil)
		if v1.StatusCode == http.StatusNotFound {
			t.Fatalf("%s: canonical v1 route 404s", path)
		}
		legacy, _ := fetch(t, http.MethodGet, ts.URL+"/api"+path, nil)
		if legacy.StatusCode != http.StatusNotFound {
			t.Errorf("%s: legacy alias answered %d, want 404", path, legacy.StatusCode)
		}
		if legacy.Header.Get("Deprecation") != "" {
			t.Errorf("%s: removed alias still advertises Deprecation", path)
		}
	}

	// Legacy launch is gone too.
	launch, _ := json.Marshal(api.LaunchRequest{Experiment: "fig14", Scale: "tiny"})
	resp, _ := fetch(t, http.MethodPost, ts.URL+"/api/runs", bytes.NewReader(launch))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("legacy launch answered %d, want 404", resp.StatusCode)
	}
}

// TestCancelConflictUsesEnvelope: canceling a terminal job answers 409
// with the unified error envelope, not the legacy {"job": ...} body.
func TestCancelConflictUsesEnvelope(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)

	job, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("launch = %d", code)
	}
	waitDone(t, ts.URL, job.ID)

	_, err := apiClient(ts.URL).Cancel(context.Background(), job.ID)
	ae, ok := err.(*api.Error)
	if !ok {
		t.Fatalf("cancel of terminal job: want *api.Error, got %v", err)
	}
	if ae.Code != api.CodeConflict || ae.HTTPStatus != http.StatusConflict {
		t.Errorf("got code=%s status=%d, want conflict/409", ae.Code, ae.HTTPStatus)
	}
}

// TestUnroutedRequestsUseEnvelope: a path no route serves, and a known
// path under a method it does not take, answer 404 with the unified
// error envelope, not net/http's text/plain 404 or 405.
func TestUnroutedRequestsUseEnvelope(t *testing.T) {
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, api.Prefix + "/nope"},
		{http.MethodPut, api.Prefix + "/runs"},
		{http.MethodGet, api.Prefix + "/fleet"},
	} {
		resp, body := fetch(t, tc.method, ts.URL+tc.path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeNotFound {
			t.Errorf("%s %s: body %q is not a not_found envelope (%v)", tc.method, tc.path, body, err)
		}
	}
}
