package serve

// executor is the job-execution engine the in-process worker (worker.go)
// drives: the worker takes a job and hands it to run, which owns the
// execution semantics — the attempt budget, store-first GetOrCompute,
// jittered transient retries, breaker feedback,
// delivery-beats-persistence.

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/results"
)

type executor struct {
	store    *results.Store
	policies *policy.Store
	// storeBrk and polBrk are the per-store circuit breakers guarding
	// result and policy persistence respectively.
	storeBrk *breaker
	polBrk   *breaker

	maxAttempts      int
	retryBase        time.Duration
	progressInterval time.Duration

	// label names this process as the worker of the jobs it runs.
	label string

	log *slog.Logger
}

// newExecutor builds the engine from a defaulted Config (see defaults).
func newExecutor(cfg Config, label string) *executor {
	return &executor{
		store:            cfg.Store,
		policies:         cfg.Policies,
		storeBrk:         newBreaker("results", cfg.BreakerThreshold, cfg.BreakerCooldown),
		polBrk:           newBreaker("policies", cfg.BreakerThreshold, cfg.BreakerCooldown),
		maxAttempts:      cfg.MaxAttempts,
		retryBase:        cfg.RetryBase,
		progressInterval: cfg.ProgressInterval,
		label:            label,
		log:              cfg.Logger,
	}
}

// run runs one job the worker just took to a terminal state.
func (e *executor) run(j *job) {
	j.mu.Lock()
	j.owner = e.label
	attempts := j.attempts
	j.mu.Unlock()
	switch {
	case j.ctx.Err() != nil:
		// A job whose context was canceled before it started (an aborted
		// shutdown, or a DELETE just after the take) is done before any
		// work is spent.
		j.finish(nil, false, 0, j.ctx.Err())
	case attempts >= e.maxAttempts:
		// The attempt budget is carried by the record, so a job that
		// kills every process that touches it (a crash loop) is abandoned
		// on its way into yet another execution.
		e.log.Warn("job abandoned (attempt budget)", "job", j.id, "attempts", attempts)
		j.finish(nil, false, 0, fmt.Errorf("abandoned after %d attempts (crash loop)", attempts))
	default:
		e.execute(j)
	}
}

// execute runs a job: the experiment or the training, consulting its
// store first (a repeat request is a store hit with zero simulations,
// which the job's sims counter proves to clients). Transient failures
// (store writes, I/O pressure — see fault.IsTransient) retry with
// jittered exponential backoff under the job's attempt budget, and each
// attempt's persist outcome feeds the store's circuit breaker. Retrying
// is nearly free on the compute side: the harness memoizes finished runs
// in memory even when persists fail. It logs the terminal outcome — the
// one log line per job worth grepping for.
func (e *executor) execute(j *job) {
	e.log.Info("job dispatched", "job", j.id, "kind", j.kind, "scale", j.scaleName)
	defer func() {
		v := j.view()
		e.log.Info("job finished", "job", j.id, "kind", j.kind, "status", v.Status,
			"cached", v.Cached, "sims", v.Sims, "attempts", v.Attempts, "error", v.Error)
	}()
	stopSampler := e.startSampler(j)

	var payload harness.ExperimentPayload
	var env policy.Envelope
	brk, attempt := e.storeBrk, func() (hit, delivered bool, err error) {
		payload = harness.ExperimentPayload{}
		hit, err = e.store.GetOrCompute(harness.ExperimentKey(j.expID, j.scale), &payload, func() (any, error) {
			return e.computeExperiment(j)
		})
		return hit, payload.Table != nil, err
	}
	if j.kind == KindTrain {
		brk, attempt = e.polBrk, func() (hit, delivered bool, err error) {
			env, hit, err = e.trainPolicy(j)
			return hit, env.ID != "", err
		}
	}
	var hit, delivered bool
	var err error
	for {
		j.beginAttempt()
		hit, delivered, err = attempt()
		e.recordPersist(brk, hit, delivered, err)
		if !e.retry(j, err) {
			break
		}
	}
	stopSampler()

	executed := j.ran.Load()
	// The stores report a non-nil error alongside a delivered artifact
	// when only the persist failed ("delivery beats persistence"); the
	// artifact must still reach the client — an unwritable store degrades
	// to "no reuse", never to a failed run.
	switch {
	case err != nil && !delivered:
		j.finish(nil, false, executed, err)
	case j.kind == KindTrain:
		meta := env.Meta
		j.finishPolicy(&meta, hit, executed, nil)
	default:
		j.finish(&payload, hit, executed, nil)
	}
}

// recordPersist feeds one attempt's persist outcome into a store's
// breaker. Only outcomes that say something about the store count: a
// delivered-but-unpersisted artifact is a persist failure, an actual
// write is a success, and a store hit (or a compute failure, or a
// read-only store) says nothing.
func (e *executor) recordPersist(b *breaker, hit, delivered bool, err error) {
	switch {
	case err != nil && delivered:
		b.recordFailure(err)
	case err == nil && !hit:
		b.recordSuccess()
	}
}

// retry decides whether err warrants another attempt: transient
// classification only (fault.IsTransient), within the attempt budget,
// and never once the job's context is done. It sleeps the jittered
// backoff before reporting true.
func (e *executor) retry(j *job, err error) bool {
	if err == nil || j.ctx.Err() != nil || !fault.IsTransient(err) {
		return false
	}
	j.mu.Lock()
	attempt := j.attempts
	j.mu.Unlock()
	if attempt >= e.maxAttempts {
		return false
	}
	wait := backoff(e.retryBase, attempt)
	e.log.Warn("transient failure, retrying", "job", j.id, "attempt", attempt,
		"backoff_ms", wait.Milliseconds(), "error", err.Error())
	j.retrying(err, wait)
	select {
	case <-time.After(wait):
	case <-j.ctx.Done():
		return false
	}
	return true
}

// backoff is full-jittered exponential backoff: a uniform draw from
// (0, base·2^(attempt-1)], capped at 5s — the de-correlated shape that
// keeps retry herds from re-colliding.
func backoff(base time.Duration, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	span := base << (attempt - 1)
	if lim := 5 * time.Second; span > lim {
		span = lim
	}
	return time.Duration(rand.Int63n(int64(span))) + 1
}

// startSampler launches the progress sampler for a running job, which
// publishes the job's sims count every tick, and returns a function that
// stops it and waits for it to exit.
func (e *executor) startSampler(j *job) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(e.progressInterval)
		defer tick.Stop()
		j.progress(0)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				j.progress(j.ran.Load())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// trainPolicy runs the training itself under the job's context; the
// recover mirrors computeExperiment's last line of defense.
func (e *executor) trainPolicy(j *job) (env policy.Envelope, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training %s on %s panicked: %v", j.train.Config.Name, j.train.Workload.Name, r)
		}
	}()
	return harness.TrainPolicyIn(j.ctx, e.policies, j.train)
}

// computeExperiment runs the experiment itself under the job's context.
// The harness reports failures (bad specs, corrupted trace-cache files,
// cancellation) as error values; the recover is a last line of defense
// against latent panics in model code, so no single request can take down
// the service either way.
func (e *executor) computeExperiment(j *job) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", j.expID, r)
		}
	}()
	exp, ok := harness.ExperimentByID(j.expID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", j.expID)
	}
	start := time.Now()
	table, err := exp.Run(j.ctx, j.scale)
	if err != nil {
		return nil, err
	}
	// The computed payload goes to the store the moment this returns.
	j.tl.Mark("persisting", time.Now().UTC())
	return harness.ExperimentPayload{
		ID:      exp.ID,
		Title:   exp.Title,
		Scale:   j.scaleName,
		Table:   table,
		Sims:    j.ran.Load(),
		Seconds: time.Since(start).Seconds(),
	}, nil
}
