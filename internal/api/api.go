// Package api is the single source of truth for pythia-serve's wire
// format: every request and response DTO the HTTP service speaks, the
// JSON error envelope, and a typed Client that all Go consumers
// (pythia-load, pythia-train, examples, e2e tests) share instead of
// hand-rolling http.Get + json.Unmarshal.
//
// The API is versioned: every route lives under Prefix ("/api/v1").
// The unversioned "/api/..." aliases from earlier releases completed
// their deprecation window and now 404 (DESIGN.md "API v1"). The wire
// format of the v1 DTOs is pinned by golden fixture tests in this
// package — renaming a JSON field fails loudly there before it can
// break a client.
package api

import (
	"encoding/json"
	"time"

	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
)

// Version is the served API version; Prefix is the canonical route
// prefix every endpoint lives under.
const (
	Version = "v1"
	Prefix  = "/api/" + Version
)

// Job kinds: an experiment render, or a policy-training run.
const (
	KindExperiment = "experiment"
	KindTrain      = "train"
)

// Job statuses, in lifecycle order. Done, error and canceled are the
// terminal states; each is also the SSE event type of the job's final
// event.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusError    = "error"
	StatusCanceled = "canceled"
)

// TerminalStatus reports whether s is a terminal job status.
func TerminalStatus(s string) bool {
	return s == StatusDone || s == StatusError || s == StatusCanceled
}

// LaunchRequest is the POST /api/v1/runs body: either an experiment
// render or, with Train set, a policy-training job.
type LaunchRequest struct {
	Experiment string `json:"experiment,omitempty"`
	Scale      string `json:"scale,omitempty"`
	// Train requests a policy-training job instead of an experiment.
	Train *TrainRequest `json:"train,omitempty"`
}

// TrainRequest describes a POST-able training job.
type TrainRequest struct {
	// Workload is the training trace name (see pythia-sim -workloads).
	Workload string `json:"workload"`
	// Config is the Pythia configuration name; empty means "pythia".
	Config string `json:"config,omitempty"`
}

// Job is the JSON representation of a serve job (the service calls it a
// "run"): its identity, lifecycle state, caching provenance, and — once
// terminal — its artifact (a rendered experiment table or a trained
// policy's metadata).
type Job struct {
	ID string `json:"id"`
	// Kind is "experiment" or "train".
	Kind       string `json:"kind"`
	Experiment string `json:"experiment,omitempty"`
	// Workload and Config describe a training job's target.
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	Title    string `json:"title"`
	Scale    string `json:"scale"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	// Cached reports that the result came from the persistent store.
	Cached bool `json:"cached"`
	// Sims is the number of simulations this job executed (0 on a store
	// hit: the zero-additional-work guarantee, measurable by clients).
	Sims int64 `json:"sims"`
	// Attempts is how many times the job entered execution (> 1 after
	// transient-failure retries or crash recovery).
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job rebuilt from the journal after a restart:
	// requeued, or re-tracked with the terminal state it had reached.
	Recovered bool `json:"recovered,omitempty"`
	// Worker labels the serving process whose in-process worker is
	// executing (or executed) the job ("pid<PID>"); informational only.
	// Empty while the job is queued.
	Worker     string                     `json:"worker,omitempty"`
	CreatedAt  time.Time                  `json:"created_at"`
	StartedAt  *time.Time                 `json:"started_at,omitempty"`
	FinishedAt *time.Time                 `json:"finished_at,omitempty"`
	Result     *harness.ExperimentPayload `json:"result,omitempty"`
	// Policy is a finished training job's artifact (metadata only; the
	// snapshot downloads from /api/v1/policies/{id}/snapshot).
	Policy *policy.Meta `json:"policy,omitempty"`
	// Rendered is the table formatted as aligned text (terminal clients).
	Rendered string `json:"rendered,omitempty"`
	// Timeline is the job's stage history with per-stage durations; the
	// last stage's duration runs to now for live jobs, to FinishedAt once
	// terminal. Retried jobs show each attempt's leased→… sequence.
	Timeline []obs.StageView `json:"timeline,omitempty"`
}

// Terminal reports whether the job has reached done, error or canceled.
func (j Job) Terminal() bool { return TerminalStatus(j.Status) }

// JobResponse wraps a single job ({"job": ...}), the body of launch,
// status and cancel responses.
type JobResponse struct {
	Job Job `json:"job"`
}

// JobsResponse is the GET /api/v1/runs listing.
type JobsResponse struct {
	Jobs []Job `json:"jobs"`
}

// ExperimentInfo is one row of the experiment listing.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Extended marks studies beyond the paper's figures.
	Extended bool `json:"extended,omitempty"`
}

// ExperimentsResponse is the GET /api/v1/experiments body.
type ExperimentsResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// ResultResponse is a stored experiment result fetched directly
// (GET /api/v1/results/{exp}?scale=...), no job required.
type ResultResponse struct {
	Result   harness.ExperimentPayload `json:"result"`
	Rendered string                    `json:"rendered"`
}

// PoliciesResponse lists stored policies' metadata (newest first);
// snapshots are not shipped — fetch one via its /snapshot path.
type PoliciesResponse struct {
	Policies []policy.Meta `json:"policies"`
}

// PolicyResponse is one policy's envelope metadata.
type PolicyResponse struct {
	Policy policy.Meta `json:"policy"`
}

// BreakerState is a circuit breaker's health snapshot.
type BreakerState struct {
	// State is "closed", "open", or "half-open" (open with an elapsed
	// cooldown: probes are admitted).
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Trips               int64  `json:"trips"`
	LastError           string `json:"last_error,omitempty"`
}

// StoreHealth is one content-addressed store's traffic and size as seen
// in /healthz (derived from the metrics registry, so any store that
// registers pythia_store_* series appears).
type StoreHealth struct {
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Writes  int64  `json:"writes"`
	Entries int64  `json:"entries"`
	Dir     string `json:"dir,omitempty"`
}

// JournalHealth reports the crash-recovery journal's state.
type JournalHealth struct {
	Dir         string `json:"dir"`
	Recovered   int    `json:"recovered"`
	WriteErrors int64  `json:"write_errors"`
}

// Health is the GET /healthz body. OK flips false while any store
// breaker is open (degraded read-only mode) — the endpoint still answers
// 200, because the process is alive and serving store hits.
type Health struct {
	OK            bool                    `json:"ok"`
	Degraded      bool                    `json:"degraded"`
	Breakers      map[string]BreakerState `json:"breakers"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Jobs          int                     `json:"jobs"`
	QueueDepth    int                     `json:"queue_depth"`
	Queued        int                     `json:"queued"`
	Closing       bool                    `json:"closing"`
	Sims          int64                   `json:"sims"`
	Workers       int                     `json:"workers"`
	Stores        map[string]StoreHealth  `json:"stores"`
	Journal       *JournalHealth          `json:"journal,omitempty"`
}

// Event is one server-sent event from a job's progress stream: a type
// tag (status/progress/retry, or a terminal job status) plus its JSON
// payload.
type Event struct {
	Type string
	Data json.RawMessage
}

// AsProgress decodes the payload of a "progress" event.
func (e Event) AsProgress() (Progress, error) {
	var p Progress
	err := json.Unmarshal(e.Data, &p)
	return p, err
}

// Progress is the payload of a "progress" event.
type Progress struct {
	ID   string `json:"id"`
	Sims int64  `json:"sims"`
}

// Retry is the payload of a "retry" event (a transient failure with the
// backoff before the next attempt).
type Retry struct {
	ID        string `json:"id"`
	Attempt   int    `json:"attempt"`
	Error     string `json:"error"`
	BackoffMs int64  `json:"backoff_ms"`
}
