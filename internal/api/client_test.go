package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientDecodesErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: Errorf(CodeNotFound, "no such run %q", "x")})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(0))
	_, err := c.Job(context.Background(), "x")
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T: %v", err, err)
	}
	if ae.Code != CodeNotFound || ae.HTTPStatus != 404 {
		t.Errorf("got code=%s status=%d", ae.Code, ae.HTTPStatus)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound should match")
	}
}

func TestClientSynthesizesEnvelopeFromPlainText(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "old-style plain text", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(0))
	_, err := c.Jobs(context.Background())
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T: %v", err, err)
	}
	if ae.Code != CodeUnavailable || !ae.Retryable || ae.Message != "old-style plain text" {
		t.Errorf("synthesized envelope wrong: %+v", ae)
	}
}

func TestClientRetriesHonoringRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: Error{
				Code: CodeQueueFull, Message: "queue full", Retryable: true, RetryAfterSec: 1,
			}})
			return
		}
		json.NewEncoder(w).Encode(JobResponse{Job: Job{ID: "run-1", Status: StatusQueued}})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(5))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := c.Launch(ctx, LaunchRequest{Experiment: "fig1"})
	if err != nil {
		t.Fatalf("launch after sheds: %v", err)
	}
	if j.ID != "run-1" {
		t.Errorf("job id = %q", j.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

func TestClientZeroRetriesSurfacesShedImmediately(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ErrorResponse{Error: Error{
			Code: CodeDegraded, Message: "breaker open", Retryable: true, RetryAfterSec: 1,
		}})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(0))
	_, err := c.Launch(context.Background(), LaunchRequest{Experiment: "fig1"})
	if !IsShed(err) {
		t.Fatalf("want shed error, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want exactly 1", got)
	}
}

func TestClientDoesNotRetryNonRetryable(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorResponse{Error: Errorf(CodeBadRequest, "unknown scale")})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(5))
	_, err := c.Launch(context.Background(), LaunchRequest{Experiment: "fig1", Scale: "nope"})
	ae, ok := err.(*Error)
	if !ok || ae.Code != CodeBadRequest {
		t.Fatalf("want bad_request, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("bad_request retried: %d calls", got)
	}
}

func TestClientEventsFollowsSSEToTerminal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		emit := func(typ string, payload any) {
			b, _ := json.Marshal(payload)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, b)
			fl.Flush()
		}
		emit("status", Job{ID: "run-9", Status: StatusQueued})
		emit("progress", Progress{ID: "run-9", Sims: 3})
		// A data line far longer than the scanner's starting buffer (and
		// than bufio's default 64 KiB token limit) must still arrive whole.
		emit(StatusDone, Job{ID: "run-9", Status: StatusDone, Sims: 3, Error: strings.Repeat("x", 300<<10)})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(0))
	var types []string
	j, err := c.Events(context.Background(), "run-9", func(ev Event) {
		types = append(types, ev.Type)
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if j.Status != StatusDone || j.Sims != 3 || len(j.Error) != 300<<10 {
		t.Errorf("terminal job = %s/%d sims, %d-byte error", j.Status, j.Sims, len(j.Error))
	}
	want := []string{"status", "progress", "done"}
	if len(types) != len(want) {
		t.Fatalf("saw events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("event[%d] = %s, want %s", i, types[i], want[i])
		}
	}
}

func TestClientWaitPollsToTerminal(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := StatusRunning
		if calls.Add(1) >= 3 {
			st = StatusDone
		}
		json.NewEncoder(w).Encode(JobResponse{Job: Job{ID: "run-2", Status: st}})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(0))
	j, err := c.Wait(context.Background(), "run-2", time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Errorf("status = %s", j.Status)
	}
}
