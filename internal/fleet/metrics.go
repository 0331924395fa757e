package fleet

import "pythia/internal/obs"

// Fleet metrics. Counters are process-wide and cumulative; the gauges
// that track a live Coordinator are func-backed and registered per
// instance (replace-on-reregister, like serve's).
var (
	mRequeues = obs.GetCounter("pythia_fleet_requeues_total",
		"Jobs requeued by reaping a dead worker's expired claim.", nil)
	mColdStarts = obs.GetCounter("pythia_fleet_cold_starts_total",
		"Worker processes spawned (boot and respawn).", nil)
	mColdStartSeconds = obs.GetGauge("pythia_fleet_cold_start_seconds",
		"Most recent worker spawn-to-first-heartbeat latency.", nil)
)

// registerMetrics wires this coordinator's live state into the default
// registry.
func (c *Coordinator) registerMetrics() {
	obs.RegisterGaugeFunc("pythia_fleet_workers",
		"Live workers by state.", obs.L("state", "ready"),
		func() float64 { r, _ := c.sup.counts(); return float64(r) })
	obs.RegisterGaugeFunc("pythia_fleet_workers",
		"Live workers by state.", obs.L("state", "starting"),
		func() float64 { _, st := c.sup.counts(); return float64(st) })
	obs.RegisterGaugeFunc("pythia_fleet_queue_depth",
		"Claimable (unclaimed, non-terminal) journal records.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.queued)
		})
	obs.RegisterGaugeFunc("pythia_fleet_inflight",
		"Claimed, unfinished jobs across the fleet.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.inflight)
		})
}
