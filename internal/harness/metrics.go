package harness

import (
	"time"

	"pythia/internal/obs"
)

// simRate is the distribution of per-run simulated-instructions/sec —
// each observation is one worker's throughput over one simulation, so
// p50/p95 expose stragglers that a process-wide average would hide.
var simRate = obs.GetHistogram("pythia_sim_instructions_per_second",
	"Per-run simulated-instructions/sec (one observation per simulation).",
	obs.RateBuckets, nil)

func init() {
	// Func-backed: the Env's counters stay the single source of truth that
	// tests already assert on (SimCount deltas prove store hits ran zero
	// simulations); /metrics reads them through these callbacks.
	obs.RegisterCounterFunc("pythia_sims_total",
		"Simulations executed by this process.", nil,
		func() float64 { return float64(SimCount()) })
	obs.RegisterCounterFunc("pythia_sim_instructions_total",
		"Instructions retired across all simulations (warmup and replays included).", nil,
		func() float64 { return float64(InstructionsRetired()) })
	obs.RegisterGaugeFunc("pythia_harness_workers",
		"Current harness parallelism bound.", nil,
		func() float64 { return float64(Workers()) })
}

// recordSimThroughput accounts one finished simulation: retired
// instructions into the process counter and, when the run took long
// enough to give a meaningful rate, an instructions/sec observation.
func (e *Env) recordSimThroughput(retired int64, elapsed time.Duration) {
	e.instructions.Add(retired)
	if sec := elapsed.Seconds(); sec > 0 && retired > 0 {
		simRate.Observe(float64(retired) / sec)
	}
}
