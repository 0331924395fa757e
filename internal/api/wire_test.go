package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/stats"
)

// The v1 wire format is a compatibility contract: these golden tests
// pin the exact JSON each DTO serializes to. If a field rename or type
// change alters the wire shape, the fixture diff fails loudly here —
// regenerate deliberately with `go test ./internal/api -update` and
// bump the API version if the change is breaking.
var update = flag.Bool("update", false, "rewrite golden wire fixtures")

func ts(s string) time.Time {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

func tsp(s string) *time.Time { t := ts(s); return &t }

// goldenCases: one fully-populated value per DTO. Optional fields are
// set on purpose — omitempty regressions (a field silently vanishing)
// only show up when the field has a value.
func goldenCases() map[string]any {
	table := &stats.Table{
		Title:  "Figure 14",
		Header: []string{"Workload", "Baseline", "Pythia"},
		Rows:   [][]string{{"mix1", "1.00", "1.12"}, {"mix2", "1.00", "1.31"}},
	}

	job := Job{
		ID:         "run-000042",
		Kind:       KindExperiment,
		Experiment: "fig14",
		Title:      "Fig 14: speedup",
		Scale:      "quick",
		Status:     StatusDone,
		Cached:     true,
		Sims:       0,
		Attempts:   2,
		Recovered:  true,
		Worker:     "pid3121-00c0ffee00c0ffee",
		CreatedAt:  ts("2026-08-08T10:00:00Z"),
		StartedAt:  tsp("2026-08-08T10:00:01Z"),
		FinishedAt: tsp("2026-08-08T10:00:05Z"),
		Result: &harness.ExperimentPayload{
			ID:      "fig14",
			Title:   "Fig 14: speedup",
			Scale:   "quick",
			Table:   table,
			Sims:    12,
			Seconds: 3.5,
		},
		Rendered: "Workload  Baseline  Pythia\n",
		Timeline: []obs.StageView{
			{Stage: "queued", At: ts("2026-08-08T10:00:00Z"), DurationSeconds: 1},
			{Stage: "running", At: ts("2026-08-08T10:00:01Z"), DurationSeconds: 4},
		},
	}

	trainJob := Job{
		ID:        "run-000043",
		Kind:      KindTrain,
		Workload:  "mix1",
		Config:    "pythia",
		Title:     "train pythia on mix1",
		Scale:     "quick",
		Status:    StatusRunning,
		CreatedAt: ts("2026-08-08T11:00:00Z"),
		StartedAt: tsp("2026-08-08T11:00:02Z"),
	}

	meta := policy.Meta{
		ID:                "a1b2c3d4e5f60718",
		Config:            "pythia",
		ConfigFingerprint: "deadbeefcafef00d",
		GenVersion:        3,
		SchemaVersion:     1,
		TrainedOn: policy.Provenance{
			Workload: "mix1",
			Trace:    "mix1/s7/n2000/g3",
			Scale:    "quick",
			Seed:     7,
			Cores:    1,
			Sims:     4,
		},
		SnapshotBytes: 4096,
		CreatedAt:     ts("2026-08-08T09:30:00Z"),
	}

	return map[string]any{
		"launch_request": LaunchRequest{Experiment: "fig14", Scale: "quick"},
		"launch_request_train": LaunchRequest{
			Scale: "quick",
			Train: &TrainRequest{Workload: "mix1", Config: "pythia"},
		},
		"job":                  job,
		"job_response":         JobResponse{Job: trainJob},
		"jobs_response":        JobsResponse{Jobs: []Job{trainJob}},
		"experiments_response": ExperimentsResponse{Experiments: []ExperimentInfo{{ID: "fig1", Title: "Fig 1"}, {ID: "ext-warmstart", Title: "Warm start", Extended: true}}},
		"result_response":      ResultResponse{Result: *job.Result, Rendered: job.Rendered},
		"policies_response":    PoliciesResponse{Policies: []policy.Meta{meta}},
		"policy_response":      PolicyResponse{Policy: meta},
		"health": Health{
			OK:       false,
			Degraded: true,
			Breakers: map[string]BreakerState{
				"results":  {State: "open", ConsecutiveFailures: 5, Trips: 2, LastError: "disk full"},
				"policies": {State: "closed"},
			},
			UptimeSeconds: 12.5,
			Jobs:          3,
			QueueDepth:    16,
			Queued:        1,
			Closing:       false,
			Sims:          42,
			Workers:       4,
			Stores: map[string]StoreHealth{
				"results": {Hits: 10, Misses: 2, Writes: 2, Entries: 2, Dir: "/tmp/results"},
			},
			Journal: &JournalHealth{Dir: "/tmp/journal", Recovered: 1, WriteErrors: 0},
		},
		"error_response": ErrorResponse{Error: Error{
			Code:          CodeQueueFull,
			Message:       "job queue is full",
			Retryable:     true,
			RetryAfterSec: 1,
		}},
		"progress": Progress{ID: "run-000042", Sims: 7},
		"retry":    Retry{ID: "run-000042", Attempt: 2, Error: "injected fault", BackoffMs: 250},
	}
}

func TestGoldenWireFormat(t *testing.T) {
	for name, v := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run `go test ./internal/api -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from pinned v1 fixture %s:\n--- want\n%s\n--- got\n%s", path, want, got)
			}
		})
	}
}

// TestRoundTrip: marshal → unmarshal → marshal must be byte-stable for
// every DTO (no lossy fields, no field that serializes differently the
// second time).
func TestRoundTrip(t *testing.T) {
	for name, v := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			first, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			// Decode into a fresh value of the same dynamic type.
			back := newOf(v)
			if err := json.Unmarshal(first, back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			second, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("round trip not stable:\n first: %s\nsecond: %s", first, second)
			}
		})
	}
}

// newOf returns a pointer to a fresh zero value of v's type, for
// round-trip decoding without generics gymnastics.
func newOf(v any) any {
	switch v.(type) {
	case LaunchRequest:
		return new(LaunchRequest)
	case Job:
		return new(Job)
	case JobResponse:
		return new(JobResponse)
	case JobsResponse:
		return new(JobsResponse)
	case ExperimentsResponse:
		return new(ExperimentsResponse)
	case ResultResponse:
		return new(ResultResponse)
	case PoliciesResponse:
		return new(PoliciesResponse)
	case PolicyResponse:
		return new(PolicyResponse)
	case Health:
		return new(Health)
	case ErrorResponse:
		return new(ErrorResponse)
	case Progress:
		return new(Progress)
	case Retry:
		return new(Retry)
	default:
		panic("unhandled golden type")
	}
}

func TestStatusForCoversEveryCode(t *testing.T) {
	want := map[string]int{
		CodeBadRequest:   400,
		CodeNotFound:     404,
		CodeConflict:     409,
		CodeQueueFull:    503,
		CodeDegraded:     503,
		CodeShuttingDown: 503,
		CodeUnavailable:  503,
		CodeInternal:     500,
	}
	for code, status := range want {
		if got := StatusFor(code); got != status {
			t.Errorf("StatusFor(%s) = %d, want %d", code, got, status)
		}
	}
}

func TestShedAndRetryHelpers(t *testing.T) {
	shed := &Error{Code: CodeQueueFull, Retryable: true, RetryAfterSec: 3}
	if !IsShed(shed) {
		t.Error("queue_full should be a shed")
	}
	if RetryAfter(shed) != 3 {
		t.Errorf("RetryAfter = %d, want 3", RetryAfter(shed))
	}
	if IsShed(&Error{Code: CodeBadRequest}) {
		t.Error("bad_request is not a shed")
	}
	if RetryAfter(&Error{Code: CodeDegraded, Retryable: true}) != 1 {
		t.Error("retryable without hint should floor at 1s")
	}
	if !IsNotFound(&Error{Code: CodeNotFound}) {
		t.Error("IsNotFound should match")
	}
}
