package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// newPolicyServer builds a test server with both stores configured.
func newPolicyServer(t *testing.T, store *results.Store, pols *policy.Store) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Store:       store,
		Policies:    pols,
		QueueDepth:  16,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
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

func postTrain(t *testing.T, base, workload, config, scale string) (serve.JobView, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"scale": scale,
		"train": map[string]string{"workload": workload, "config": config},
	})
	resp, err := http.Post(base+"/api/v1/runs", "application/json", bytes.NewReader(body))
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

// TestServeTrainEndToEnd is the policy-lifecycle acceptance test over
// HTTP: a POST-ed training job flows through the queue and SSE machinery,
// lands a policy in the store, the policy is listable and its snapshot
// downloadable — and a repeat training request (after the in-memory
// caches are wiped and the service rebuilt over the same directories) is
// a policy-store hit that performs zero simulations.
func TestServeTrainEndToEnd(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	resDir, polDir := t.TempDir(), t.TempDir()
	_, ts := newPolicyServer(t, results.Open(resDir), policy.Open(polDir))

	job, code := postTrain(t, ts.URL, "459.GemsFDTD-100B", "pythia", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST train = %d", code)
	}
	if job.Kind != serve.KindTrain || job.Workload != "459.GemsFDTD-100B" || job.Config != "pythia" {
		t.Fatalf("train job view wrong: %+v", job)
	}

	// The SSE stream carries the full lifecycle and the terminal event
	// includes the policy artifact.
	evs := readSSE(t, ts.URL, job.ID)
	var final serve.JobView
	for _, ev := range evs {
		if ev.Type == serve.StatusDone || ev.Type == serve.StatusError {
			json.Unmarshal(ev.Data, &final)
		}
	}
	if final.Status != serve.StatusDone {
		t.Fatalf("train job finished %q (error %q)", final.Status, final.Error)
	}
	if final.Cached {
		t.Error("first training claims a store hit")
	}
	if final.Sims != 1 {
		t.Errorf("training executed %d sims, want 1", final.Sims)
	}
	if final.Policy == nil || final.Policy.ID == "" {
		t.Fatal("finished training job carries no policy")
	}
	polID := final.Policy.ID

	// The policy is listable and fetchable.
	var listing struct {
		Policies []policy.Meta `json:"policies"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/policies", &listing); code != http.StatusOK {
		t.Fatalf("GET policies = %d", code)
	}
	if len(listing.Policies) != 1 || listing.Policies[0].ID != polID {
		t.Fatalf("policy listing wrong: %+v", listing.Policies)
	}
	var one struct {
		Policy policy.Meta `json:"policy"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/policies/"+polID, &one); code != http.StatusOK {
		t.Fatalf("GET policy = %d", code)
	}
	if one.Policy.TrainedOn.Workload != "459.GemsFDTD-100B" {
		t.Errorf("policy provenance wrong: %+v", one.Policy.TrainedOn)
	}

	// The snapshot downloads as the raw PYQV01 stream.
	resp, err := http.Get(ts.URL + "/api/v1/policies/" + polID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("snapshot download = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if len(snap) != one.Policy.SnapshotBytes || string(snap[:6]) != "PYQV01" {
		t.Fatalf("snapshot payload wrong: %d bytes, magic %q", len(snap), snap[:6])
	}

	// Restart in miniature: wipe in-memory caches, rebuild over the same
	// directories. The repeat training request must be a policy-store hit
	// with zero additional simulation work.
	harness.ResetCaches()
	_, ts2 := newPolicyServer(t, results.Open(resDir), policy.Open(polDir))
	before := harness.SimCount()
	job2, code := postTrain(t, ts2.URL, "459.GemsFDTD-100B", "pythia", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("repeat POST train = %d", code)
	}
	done := waitDone(t, ts2.URL, job2.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("repeat train finished %q (error %q)", done.Status, done.Error)
	}
	if !done.Cached {
		t.Error("repeat training was not served from the policy store")
	}
	if done.Sims != 0 {
		t.Errorf("repeat training reports %d simulations, want 0", done.Sims)
	}
	if delta := harness.SimCount() - before; delta != 0 {
		t.Errorf("repeat training executed %d simulations, want 0", delta)
	}
	if done.Policy == nil || done.Policy.ID != polID {
		t.Errorf("repeat training returned a different policy: %+v", done.Policy)
	}
}

func TestServeTrainRejectsBadRequests(t *testing.T) {
	_, ts := newPolicyServer(t, results.Open(t.TempDir()), policy.Open(t.TempDir()))
	if _, code := postTrain(t, ts.URL, "no-such-trace", "pythia", "tiny"); code != http.StatusNotFound {
		t.Errorf("unknown workload accepted: %d", code)
	}
	if _, code := postTrain(t, ts.URL, "459.GemsFDTD-100B", "no-such-config", "tiny"); code != http.StatusBadRequest {
		t.Errorf("unknown config accepted: %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/policies/pol-absent", nil); code != http.StatusNotFound {
		t.Errorf("absent policy fetch = %d", code)
	}
	// An empty store lists as an empty array, not an error.
	var listing struct {
		Policies []policy.Meta `json:"policies"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/policies", &listing); code != http.StatusOK || listing.Policies == nil {
		t.Errorf("empty listing = %d %v", code, listing.Policies)
	}
}

// TestServeWithoutPolicyStore: a server configured without a policy store
// keeps its experiment surface and answers the policy surface with 503.
func TestServeWithoutPolicyStore(t *testing.T) {
	_, ts := newTestServer(t, results.Open(t.TempDir()), 4)
	if code := getJSON(t, ts.URL+"/api/v1/policies", nil); code != http.StatusServiceUnavailable {
		t.Errorf("policies without store = %d, want 503", code)
	}
	if _, code := postTrain(t, ts.URL, "459.GemsFDTD-100B", "pythia", "tiny"); code != http.StatusServiceUnavailable {
		t.Errorf("train without store = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}
