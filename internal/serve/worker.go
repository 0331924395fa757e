package serve

// The in-process worker: the one goroutine that executes jobs. It takes
// the server's waiting jobs in admission order and runs each to a
// terminal state, one at a time: the attempt budget, store-first
// GetOrCompute, jittered transient retries, breaker feedback, and
// delivery before persistence. Taking a job is setting its held flag
// under the job's mutex, which is also where a DELETE decides whether
// the job never started; the journal lock keeps every other process
// away.

import (
	"fmt"
	"math/rand"
	"time"

	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/policy"
)

const (
	// maxAttempts bounds how many times a job may enter execution —
	// transient-failure retries and crash-recovery dispatches both
	// count — before it fails permanently.
	maxAttempts = 3
	// retryBase is the first retry backoff; attempt n waits up to
	// retryBase·2^(n-1), full-jittered, capped at 5s.
	retryBase = 100 * time.Millisecond
)

// startWorker starts the in-process worker. Admission rings the doorbell
// (s.wake), so the worker never polls while a job waits. On shutdown it
// runs every job still waiting (each honors its own context, so an
// aborted shutdown cancels them), then exits.
func (s *Server) startWorker() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for draining := false; ; {
			if s.runOne() {
				continue
			}
			if draining {
				return
			}
			select {
			case <-s.wake:
			case <-s.drain:
				// Shutdown closes drain after its closing transition, so the
				// scans after it see every job admitted before it.
				draining = true
			}
		}
	}()
}

// runOne takes the first waiting job, runs it, and reports whether it
// ran one. A job that turned terminal between the scan and the take (a
// DELETE canceled it) is skipped.
func (s *Server) runOne() bool {
	for _, j := range s.waitingJobs() {
		if j.take() {
			s.run(j)
			return true
		}
	}
	return false
}

// run runs one job the worker just took to a terminal state.
func (s *Server) run(j *job) {
	j.mu.Lock()
	j.owner = s.label
	attempts := j.attempts
	j.mu.Unlock()
	switch {
	case j.ctx.Err() != nil:
		// A job whose context was canceled before it started (an aborted
		// shutdown, or a DELETE just after the take) is done before any
		// work is spent.
		j.finish(nil, false, j.ctx.Err())
	case attempts >= maxAttempts:
		// The attempt budget is carried by the record, so a job that
		// kills every process that touches it (a crash loop) is abandoned
		// on its way into yet another execution.
		s.log.Warn("job abandoned (attempt budget)", "job", j.id, "attempts", attempts)
		j.finish(nil, false, fmt.Errorf("abandoned after %d attempts (crash loop)", attempts))
	default:
		s.execute(j)
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
func (s *Server) execute(j *job) {
	s.log.Info("job dispatched", "job", j.id, "kind", j.kind, "scale", j.scaleName)
	defer func() {
		v := j.view()
		s.log.Info("job finished", "job", j.id, "kind", j.kind, "status", v.Status,
			"cached", v.Cached, "sims", v.Sims, "attempts", v.Attempts, "error", v.Error)
	}()

	var payload harness.ExperimentPayload
	var env policy.Envelope
	brk, attempt := s.storeBrk, func() (hit, delivered bool, err error) {
		payload = harness.ExperimentPayload{}
		hit, err = s.store.GetOrCompute(harness.ExperimentKey(j.expID, j.scale), &payload, func() (any, error) {
			return s.computeExperiment(j)
		})
		return hit, payload.Table != nil, err
	}
	if j.kind == KindTrain {
		brk, attempt = s.polBrk, func() (hit, delivered bool, err error) {
			env, hit, err = s.trainPolicy(j)
			return hit, env.ID != "", err
		}
	}
	var hit, delivered bool
	var err error
	for {
		j.beginAttempt()
		hit, delivered, err = attempt()
		recordPersist(brk, hit, delivered, err)
		if !s.retry(j, err) {
			break
		}
	}

	// The stores report a non-nil error alongside a delivered artifact
	// when only the persist failed ("delivery beats persistence"); the
	// artifact must still reach the client — an unwritable store degrades
	// to "no reuse", never to a failed run.
	switch {
	case err != nil && !delivered:
		j.finish(nil, false, err)
	case j.kind == KindTrain:
		meta := env.Meta
		j.finishPolicy(&meta, hit, nil)
	default:
		j.finish(&payload, hit, nil)
	}
}

// recordPersist feeds one attempt's persist outcome into a store's
// breaker. Only outcomes that say something about the store count: a
// delivered-but-unpersisted artifact is a persist failure, an actual
// write is a success, and a store hit (or a compute failure, or a
// read-only store) says nothing.
func recordPersist(b *breaker, hit, delivered bool, err error) {
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
func (s *Server) retry(j *job, err error) bool {
	if err == nil || j.ctx.Err() != nil || !fault.IsTransient(err) {
		return false
	}
	j.mu.Lock()
	attempt := j.attempts
	j.mu.Unlock()
	if attempt >= maxAttempts {
		return false
	}
	wait := backoff(attempt)
	s.log.Warn("transient failure, retrying", "job", j.id, "attempt", attempt,
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
// (0, retryBase·2^(attempt-1)], capped at 5s — the de-correlated shape
// that keeps retry herds from re-colliding.
func backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	span := retryBase << (attempt - 1)
	if lim := 5 * time.Second; span > lim {
		span = lim
	}
	return time.Duration(rand.Int63n(int64(span))) + 1
}

// trainPolicy runs the training itself under the job's context; the
// recover mirrors computeExperiment's last line of defense.
func (s *Server) trainPolicy(j *job) (env policy.Envelope, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training %s on %s panicked: %v", j.train.Config.Name, j.train.Workload.Name, r)
		}
	}()
	return harness.TrainPolicyIn(j.ctx, s.cfg.Policies, j.train)
}

// computeExperiment runs the experiment itself under the job's context.
// The harness reports failures (bad specs, corrupted trace-cache files,
// cancellation) as error values; the recover is a last line of defense
// against latent panics in model code, so no single request can take down
// the service either way.
func (s *Server) computeExperiment(j *job) (payload any, err error) {
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
		Sims:    j.simCount(),
		Seconds: time.Since(start).Seconds(),
	}, nil
}
