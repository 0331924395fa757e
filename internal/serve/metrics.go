package serve

import (
	"pythia/internal/obs"
)

// Process-wide serve metrics, shared by every Server instance in the
// process (tests build many; counters are cumulative and asserted by
// delta). Func-backed per-instance gauges are registered in New via
// registerMetrics — replace-on-reregister semantics keep them reading
// the live instance.
var (
	mQueueWait = obs.GetHistogram("pythia_serve_queue_wait_seconds",
		"Time from job admission to first lease (queue wait).", obs.LatencyBuckets, nil)
	mRetries = obs.GetCounter("pythia_serve_retries_total",
		"Transient-failure retry attempts across all jobs.", nil)
	mRequeues = obs.GetCounter("pythia_serve_requeues_total",
		"Jobs requeued from the journal at startup.", nil)
	mRecovered = obs.GetCounter("pythia_serve_journal_recovered_total",
		"Jobs rebuilt from the journal at startup.", nil)
	mSSESubs = obs.GetGauge("pythia_serve_sse_subscribers",
		"Live SSE event-stream subscribers.", nil)
)

// jobsFinished counts terminal job states, labeled by status
// (done/error/canceled).
func jobsFinished(status string) *obs.Counter {
	return obs.GetCounter("pythia_serve_jobs_total",
		"Jobs reaching a terminal state, by status.", obs.L("status", status))
}

// jobDuration is the run-duration distribution (first lease to terminal),
// labeled by job kind.
func jobDuration(kind string) *obs.Histogram {
	return obs.GetHistogram("pythia_serve_job_duration_seconds",
		"Job run duration from first lease to terminal state.", obs.LatencyBuckets, obs.L("kind", kind))
}

// shedCounter counts 503-shed launches, labeled by why.
func shedCounter(reason string) *obs.Counter {
	return obs.GetCounter("pythia_serve_shed_total",
		"Launch requests shed with 503, by reason.", obs.L("reason", reason))
}

// routeCounter is the per-route request counter the route() helper bumps.
func routeCounter(pattern string) *obs.Counter {
	return obs.GetCounter("pythia_http_requests_total",
		"HTTP requests handled, by route pattern.", obs.L("route", pattern))
}

// registerMetrics wires this server's live state into the default
// registry as func-backed metrics. Called once from New; re-registration
// by a newer Server instance replaces the callbacks, so tests that build
// servers back-to-back always scrape the current one.
func (s *Server) registerMetrics() {
	obs.RegisterGaugeFunc("pythia_serve_queue_depth",
		"Jobs admitted and waiting to execute (queued, not yet taken).", nil,
		func() float64 { return float64(s.queued()) })
	obs.RegisterGaugeFunc("pythia_serve_queue_capacity",
		"Admission bound on waiting jobs (Config.QueueDepth).", nil,
		func() float64 { return float64(s.cfg.QueueDepth) })
	obs.RegisterGaugeFunc("pythia_serve_jobs_tracked",
		"Jobs currently registered (queued, running, and retained history).", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	obs.RegisterGaugeFunc("pythia_store_entries",
		"Entries currently on disk.", obs.L("store", "results"),
		func() float64 { return float64(s.store.Len()) })
	if p := s.cfg.Policies; p != nil {
		obs.RegisterGaugeFunc("pythia_store_entries",
			"Entries currently on disk.", obs.L("store", "policies"),
			func() float64 { return float64(p.Len()) })
	}
	s.exec.storeBrk.register()
	s.exec.polBrk.register()
	obs.RegisterCounterFunc("pythia_serve_journal_write_errors_total",
		"Journal writes that failed (job state may lag on disk).", nil,
		func() float64 { return float64(s.journal.writeErrs.Load()) })
}
