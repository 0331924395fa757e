package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
)

// Job kinds and statuses are defined by the wire contract in
// internal/api; serve re-exports them so internal code (and the journal,
// which persists status strings) reads naturally. Both kinds flow
// through the same worker and SSE machinery.
const (
	KindExperiment = api.KindExperiment
	KindTrain      = api.KindTrain

	StatusQueued   = api.StatusQueued
	StatusRunning  = api.StatusRunning
	StatusDone     = api.StatusDone
	StatusError    = api.StatusError
	StatusCanceled = api.StatusCanceled
)

// terminalStatus reports whether s is a terminal job status.
func terminalStatus(s string) bool { return api.TerminalStatus(s) }

// Event is one server-sent event: a type tag plus a JSON payload.
type Event = api.Event

// job is one queued experiment run. All mutable state is behind mu; the
// worker writes, HTTP handlers read, SSE subscribers receive a replay of
// every event published so far followed by live events, so a subscriber
// that arrives after completion still sees the full history.
//
// Each job owns a context derived from the server's base context; cancel
// (DELETE /api/v1/runs/{id}) aborts an in-flight simulation at the next chunk
// boundary and turns a queued job into a no-op. Server shutdown cancels
// the base context, which reaches every job the same way.
type job struct {
	id        string
	kind      string
	expID     string
	title     string
	scaleName string
	scale     harness.Scale
	// train is the training spec of a KindTrain job.
	train harness.TrainSpec

	ctx    context.Context
	cancel context.CancelFunc

	// tl is the job's stage timeline (accepted→queued→leased→streaming→
	// simulating→persisting→terminal). It also rides ctx, so the harness
	// marks the stages it owns; JobView surfaces the snapshot.
	tl *obs.Timeline

	// jl is the journal the job lives in; set before the job is visible
	// to any other goroutine. State transitions under mu write through to
	// it, so per-job journal writes are serialized.
	jl *journal
	// recovered marks a job rebuilt from the journal after a restart.
	recovered bool

	mu     sync.Mutex
	status string
	errMsg string
	cached bool
	// sims counts the simulations started under ctx
	// (harness.WithSimCounter calls simStarted): this job's own, however
	// many jobs share the process.
	sims     int64
	attempts int
	// owner is the label of the process executing the job (set when the
	// worker takes it; empty while queued), shown as the job's worker and
	// journaled.
	owner string
	// held marks a job the in-process worker has taken: it no longer
	// waits in the queue, and a DELETE leaves finishing it to the worker.
	held bool
	// userCanceled distinguishes DELETE (a terminal decision, journaled)
	// from shutdown-driven cancellation (the journal keeps the job's
	// pre-cancel state so a restart requeues it).
	userCanceled bool
	created      time.Time
	started      time.Time
	finished     time.Time
	result       *harness.ExperimentPayload
	// policyMeta is a finished training job's artifact descriptor.
	policyMeta *policy.Meta

	events []Event
	subs   map[chan Event]struct{}
	closed bool
}

// JobView is the JSON representation of a job exposed by the API — an
// alias for api.Job, the single source of truth for the v1 wire format
// (golden-pinned in internal/api).
type JobView = api.Job

// blankJob builds a queued job for spec, resolved to sc, in journal jl,
// its context a child of base. The kind-specific target is the caller's
// to fill in (Server.newJob).
func blankJob(base context.Context, jl *journal, spec jobRecord, sc harness.Scale) *job {
	now := time.Now().UTC()
	tl := obs.NewTimeline("accepted", now)
	tl.Mark("queued", now)
	j := &job{
		id:        spec.ID,
		kind:      spec.Kind,
		scaleName: spec.Scale,
		scale:     sc,
		tl:        tl,
		jl:        jl,
		status:    StatusQueued,
		created:   now,
		subs:      make(map[chan Event]struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(harness.WithSimCounter(obs.WithTimeline(base, tl), j.simStarted))
	return j
}

// terminal reports whether the job has reached done, error or canceled.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalStatus(j.status)
}

// view snapshots the job for JSON rendering.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *job) viewLocked() JobView {
	v := JobView{
		ID:         j.id,
		Kind:       j.kind,
		Experiment: j.expID,
		Title:      j.title,
		Scale:      j.scaleName,
		Status:     j.status,
		Error:      j.errMsg,
		Cached:     j.cached,
		Sims:       j.sims,
		Attempts:   j.attempts,
		Recovered:  j.recovered,
		Worker:     j.owner,
		CreatedAt:  j.created,
		Result:     j.result,
		Policy:     j.policyMeta,
	}
	if j.kind == KindTrain {
		v.Workload = j.train.Workload.Name
		v.Config = j.train.Config.Name
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.result != nil && j.result.Table != nil {
		v.Rendered = j.result.Table.Render()
	}
	until := time.Now().UTC()
	if !j.finished.IsZero() {
		until = j.finished
	}
	v.Timeline = j.tl.Snapshot(until)
	return v
}

// publish appends an event to the history and fans it out to live
// subscribers. Callers must hold mu (admission's and recovery's first
// calls are safe: no other goroutine can see the job yet).
func (j *job) publish(typ string, payload any) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return
	}
	ev := Event{Type: typ, Data: buf}
	// Coalesce consecutive progress events in the history: live
	// subscribers already received each one, and replaying one per
	// simulation of a long run would bloat the history (and server memory)
	// for no information — only the latest progress figure matters to a
	// late subscriber.
	if typ == "progress" && len(j.events) > 0 && j.events[len(j.events)-1].Type == "progress" {
		j.events[len(j.events)-1] = ev
	} else {
		j.events = append(j.events, ev)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// A subscriber that cannot keep up misses intermediate progress
			// events; the SSE handler synthesizes the terminal event from
			// the job's final state if it was dropped here, so nothing
			// essential is lost.
		}
	}
}

// beginAttempt transitions the job to running (announced once, on the
// first attempt) and counts the attempt, journaled. A job that already
// turned terminal stays terminal: running must not overwrite (or be
// published after) a terminal state.
func (j *job) beginAttempt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return
	}
	j.attempts++
	now := time.Now().UTC()
	if j.attempts == 1 {
		mQueueWait.Observe(now.Sub(j.created).Seconds())
	}
	// Barrier, not Mark: each attempt opens a fresh dedup window, so a
	// retried job's timeline shows every leased→streaming→… sequence.
	j.tl.Barrier("leased", now)
	if j.status != StatusRunning {
		j.status = StatusRunning
		j.started = time.Now().UTC()
		j.publish("status", j.viewLocked())
		// Execution starts at the count so far (0), so even a job that runs
		// no simulation announces its progress.
		j.publish("progress", api.Progress{ID: j.id, Sims: j.sims})
	}
	j.journalLocked()
}

// checkpoint journals an open job's state: an admitted job's queued
// record is the write-ahead that makes admission durable.
func (j *job) checkpoint() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !terminalStatus(j.status) {
		j.journalLocked()
	}
}

// retrying announces a transient failure and the backoff before the
// next attempt (a "retry" SSE event; bounded by the attempt budget, so
// no coalescing is needed).
func (j *job) retrying(err error, wait time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return
	}
	mRetries.Inc()
	j.publish("retry", map[string]any{
		"id":         j.id,
		"attempt":    j.attempts,
		"error":      err.Error(),
		"backoff_ms": wait.Milliseconds(),
	})
}

// take marks the job taken by the in-process worker; it refuses,
// returning false, once the job is terminal. Together with cancelUser it
// decides the cancel-vs-start race under j.mu: exactly one of them wins.
func (j *job) take() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.held = true
	return true
}

// waiting reports whether the job waits for the in-process worker: it is
// open and not yet taken.
func (j *job) waiting() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !terminalStatus(j.status) && !j.held
}

// cancelUser cancels the job on a client's request (DELETE), which
// makes the resulting terminal state durable (see userCanceled). A job
// the worker has not taken turns terminal here and reports true: take
// then refuses it, so it never starts. A taken job has its context
// canceled, and the worker finishes it at the next chunk boundary.
func (j *job) cancelUser() (wasWaiting bool) {
	j.mu.Lock()
	j.userCanceled = true
	wasWaiting = !j.held && !terminalStatus(j.status)
	if wasWaiting {
		j.finishLocked(nil, false, context.Canceled)
	}
	j.mu.Unlock()
	j.cancel()
	return wasWaiting
}

// simStarted counts one simulation started under the job's context and
// announces the new count. It runs on the simulation's goroutine. The
// count is bumped and published under mu, so progress never goes
// backwards; once the job is terminal the count is final and nothing is
// published, so no event trails the terminal one.
func (j *job) simStarted() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return
	}
	j.sims++
	j.publish("progress", api.Progress{ID: j.id, Sims: j.sims})
}

// simCount reports how many simulations the job has started so far.
func (j *job) simCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sims
}

// finish records the terminal state, announces it, and closes every
// subscriber channel (their signal to end the SSE stream). A context
// cancellation error lands the job in canceled, not error: being stopped
// on request is a normal lifecycle outcome, not a failure. Finishing twice
// is a no-op (a job may be finished by both a DELETE and the worker
// that raced it).
func (j *job) finish(res *harness.ExperimentPayload, cached bool, err error) {
	j.finishWith(func() { j.result = res }, cached, err)
}

// finishPolicy is finish for training jobs: the artifact is a policy
// descriptor rather than a rendered table.
func (j *job) finishPolicy(meta *policy.Meta, cached bool, err error) {
	j.finishWith(func() { j.policyMeta = meta }, cached, err)
}

// finishWith records the terminal state (setResult installs the
// kind-specific artifact on success) under mu.
func (j *job) finishWith(setResult func(), cached bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(setResult, cached, err)
}

// finishLocked is finishWith for callers holding mu.
func (j *job) finishLocked(setResult func(), cached bool, err error) {
	if terminalStatus(j.status) {
		return
	}
	j.finished = time.Now().UTC()
	j.cached = cached
	switch {
	case err == nil:
		j.status = StatusDone
		setResult()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.errMsg = err.Error()
	default:
		j.status = StatusError
		j.errMsg = err.Error()
	}
	// Journal the terminal state — except for cancellations the client
	// did not ask for (shutdown, an aborted drain): those keep their
	// last journaled state so a restart requeues the job instead of
	// losing it. That asymmetry is what makes the queue durable across
	// SIGTERM, not just SIGKILL.
	if j.status != StatusCanceled || j.userCanceled {
		j.journalLocked()
	}
	// Announce the terminal state — metrics, timeline, the terminal
	// event — and close every subscriber stream. The job context is done
	// with: canceling it releases its resources (and unparks any
	// AfterFunc the harness registered for it).
	mSSESubs.Add(-float64(len(j.subs)))
	j.tl.Barrier(j.status, j.finished)
	jobsFinished(j.status).Inc()
	if !j.started.IsZero() {
		jobDuration(j.kind).Observe(j.finished.Sub(j.started).Seconds())
	}
	j.publish(j.status, j.viewLocked())
	j.closed = true
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	j.cancel()
}

// restore installs a terminal record's outcome on a job rebuilt at
// recovery, before the job is visible to other goroutines: a client
// polling it across a restart gets its final state, and a done job its
// artifact (res or meta, reloaded from its store by the caller; nil on a
// store miss). Nothing is journaled or counted again.
func (j *job) restore(rec jobRecord, res *harness.ExperimentPayload, meta *policy.Meta) {
	j.result, j.policyMeta = res, meta
	j.status = rec.Status
	j.errMsg = rec.Error
	j.sims = rec.Sims
	j.cached = rec.Cached
	j.owner = rec.Owner
	j.finished = rec.UpdatedAt
	// The record keeps no stage times, so the timeline spans the job's
	// whole life as one stage.
	j.tl = obs.NewTimeline("accepted", j.created)
	j.tl.Barrier(j.status, j.finished)
	j.publish(j.status, j.viewLocked())
	j.closed = true
	j.cancel()
}

// subscribe returns the event history so far plus a channel of subsequent
// events; the channel is closed when the job reaches a terminal state.
// The caller must call the returned cancel function when done.
func (j *job) subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch := make(chan Event, 16)
	if j.closed {
		close(ch)
		return replay, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	mSSESubs.Add(1)
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
			mSSESubs.Add(-1)
		}
	}
}
