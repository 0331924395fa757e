package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pythia/internal/policy"
)

// Client is the typed HTTP client for pythia-serve's v1 API. All
// methods take a context, decode the JSON error envelope into *Error,
// and — unless retries are disabled — honor 503 + Retry-After with
// jittered backoff, so every consumer gets the polite-backoff contract
// for free instead of reimplementing it.
//
// A zero-retry client (WithRetries(0)) returns shed responses
// immediately as *Error; pythia-load uses that to measure shedding
// instead of hiding it.
type Client struct {
	base    string
	hc      *http.Client
	retries int

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports). The default has no overall timeout — per-call contexts
// bound requests — because SSE streams are long-lived by design.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries bounds how many times a retryable failure (503 shed,
// transport error) is retried after the initial attempt. 0 disables
// retrying entirely. The default is 3.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// NewClient builds a client for the server at base
// (e.g. "http://127.0.0.1:8080"). The canonical /api/v1 routes are
// always used.
func NewClient(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		retries: 3,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server base URL the client talks to.
func (c *Client) Base() string { return c.base }

// do issues one API call: marshal in (if non-nil) as the JSON body,
// decode a 2xx response into out (if non-nil), decode anything else as
// the error envelope. Retryable failures are retried with full-jittered
// backoff seeded by the server's Retry-After hint.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("api: marshal request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= c.retries || !retryable(err) || ctx.Err() != nil {
			return lastErr
		}
		if err := c.backoff(ctx, err, attempt); err != nil {
			return lastErr
		}
	}
}

// retryable: typed retryable envelopes (503 sheds) and transport errors
// (connection refused during server startup, resets) warrant another
// attempt; typed non-retryable responses never do.
func retryable(err error) bool {
	if ae, ok := err.(*Error); ok {
		return ae.Retryable
	}
	return true // transport-level failure
}

// backoff sleeps a uniform draw from (0, hint] seconds — honoring the
// server's Retry-After exactly would re-synchronize every shed client
// onto the same instant — doubling the hint per attempt, ctx-aware.
func (c *Client) backoff(ctx context.Context, err error, attempt int) error {
	hint := RetryAfter(err)
	if hint < 1 {
		hint = 1
	}
	span := time.Duration(hint) * time.Second << attempt
	if span > 30*time.Second {
		span = 30 * time.Second
	}
	c.mu.Lock()
	wait := time.Duration(c.rng.Int63n(int64(span))) + time.Millisecond
	c.mu.Unlock()
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("api: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// decodeError turns a non-2xx response into *Error: the envelope when
// the body carries one, a synthesized envelope otherwise (a proxy or
// pre-envelope server answered). The Retry-After header fills
// RetryAfterSec when the body didn't.
func decodeError(resp *http.Response) error {
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env ErrorResponse
	ae := Error{}
	if json.Unmarshal(buf, &env) == nil && env.Error.Code != "" {
		ae = env.Error
	} else {
		ae = Error{
			Code:      codeForStatus(resp.StatusCode),
			Message:   strings.TrimSpace(string(buf)),
			Retryable: resp.StatusCode == http.StatusServiceUnavailable,
		}
		if ae.Message == "" {
			ae.Message = resp.Status
		}
	}
	ae.HTTPStatus = resp.StatusCode
	if ae.RetryAfterSec == 0 {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			ae.RetryAfterSec = s
		}
	}
	return &ae
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// --- Endpoint methods ---

// Experiments lists the experiments the server can run.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out ExperimentsResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// Launch submits a job (experiment render or policy training) and
// returns its accepted view.
func (c *Client) Launch(ctx context.Context, req LaunchRequest) (Job, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodPost, Prefix+"/runs", req, &out); err != nil {
		return Job{}, err
	}
	return out.Job, nil
}

// Jobs lists every registered job (queued, running, retained history).
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out JobsResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/runs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Job fetches one job's current view.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/runs/"+url.PathEscape(id), nil, &out); err != nil {
		return Job{}, err
	}
	return out.Job, nil
}

// Cancel cancels a queued or running job and returns its view. An
// already-terminal job yields a CodeConflict error.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodDelete, Prefix+"/runs/"+url.PathEscape(id), nil, &out); err != nil {
		return Job{}, err
	}
	return out.Job, nil
}

// Result fetches a stored experiment result directly (no job). scale ""
// means the server's default scale.
func (c *Client) Result(ctx context.Context, expID, scale string) (ResultResponse, error) {
	p := Prefix + "/results/" + url.PathEscape(expID)
	if scale != "" {
		p += "?scale=" + url.QueryEscape(scale)
	}
	var out ResultResponse
	if err := c.do(ctx, http.MethodGet, p, nil, &out); err != nil {
		return ResultResponse{}, err
	}
	return out, nil
}

// Policies lists stored trained policies (metadata only).
func (c *Client) Policies(ctx context.Context) ([]policy.Meta, error) {
	var out PoliciesResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/policies", nil, &out); err != nil {
		return nil, err
	}
	return out.Policies, nil
}

// Policy fetches one stored policy's metadata.
func (c *Client) Policy(ctx context.Context, id string) (policy.Meta, error) {
	var out PolicyResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/policies/"+url.PathEscape(id), nil, &out); err != nil {
		return policy.Meta{}, err
	}
	return out.Policy, nil
}

// PolicySnapshot downloads a policy's raw PYQV01 snapshot bytes.
func (c *Client) PolicySnapshot(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+Prefix+"/policies/"+url.PathEscape(id)+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Health fetches /healthz (unversioned: an operational endpoint, not an
// API resource).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return Health{}, err
	}
	return out, nil
}

// Fleet fetches the coordinator's fleet view (GET /api/v1/fleet).
//
// Deprecated: worker processes are gone and every server answers the
// route with CodeNotFound; the method stays for one release.
func (c *Client) Fleet(ctx context.Context) (FleetStatus, error) {
	var out FleetResponse
	if err := c.do(ctx, http.MethodGet, Prefix+"/fleet", nil, &out); err != nil {
		return FleetStatus{}, err
	}
	return out.Fleet, nil
}

// Events subscribes to a job's SSE progress stream and invokes fn (if
// non-nil) for every event, returning the job's terminal view when the
// stream ends. The server replays the full history first, so a late
// subscriber still sees every lifecycle event. If the stream ends
// without a terminal event (server shutdown mid-stream), the job's
// current view is fetched as a fallback.
func (c *Client) Events(ctx context.Context, id string, fn func(Event)) (Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+Prefix+"/runs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return Job{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return Job{}, decodeError(resp)
	}
	var final *Job
	sc := bufio.NewScanner(resp.Body)
	// Events are small; the buffer grows (to 1 MiB) only for a long line.
	sc.Buffer(make([]byte, 0, 16<<10), 1<<20)
	var cur Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Type == "" {
				continue
			}
			if fn != nil {
				fn(cur)
			}
			if TerminalStatus(cur.Type) {
				var j Job
				if json.Unmarshal(cur.Data, &j) == nil {
					final = &j
				}
			}
			cur = Event{}
		}
	}
	if err := sc.Err(); err != nil && final == nil {
		return Job{}, err
	}
	if final != nil {
		return *final, nil
	}
	return c.Job(ctx, id)
}

// Wait polls a job until it reaches a terminal state. poll <= 0 means a
// 25ms interval.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return Job{}, err
		}
		if j.Terminal() {
			return j, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return j, ctx.Err()
		}
	}
}
