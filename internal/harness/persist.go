package harness

import (
	"fmt"

	"pythia/internal/results"
	"pythia/internal/stats"
)

// --- Persistent result store integration ---
//
// The in-memory memoization in RunCached dies with the process; pointing
// the harness at a results.Store makes simulation results survive
// restarts, so pythia-bench, pythia-serve, tests and examples sharing one
// store directory reuse each other's work. Entries are keyed by the same
// outcome-determining fields as the in-memory cache plus trace.GenVersion
// (via results.Fingerprint), so generator changes invalidate them
// automatically.

// Key returns the canonical identity string of everything in a Scale that
// determines simulation outcomes. StreamChunk is excluded for the same
// reason it is absent from cacheKey: streamed and materialized delivery
// produce identical records.
func (sc Scale) Key() string {
	return fmt.Sprintf("w%d|s%d|t%d|wps%d|hm%d",
		sc.Warmup, sc.Sim, sc.TraceLen, sc.WorkloadsPerSuite, sc.HeteroMixes)
}

// runKey addresses one simulation in the persistent store; key is the
// spec's cacheKey.
func runKey(spec RunSpec, key string) results.Key {
	return results.Key{
		Kind:        "run",
		Name:        spec.Mix.Name + "|" + spec.PF.Name,
		Fingerprint: results.Fingerprint(key),
	}
}

// ExperimentKey addresses a rendered experiment table in the persistent
// store (pythia-serve's unit of reuse).
func ExperimentKey(expID string, sc Scale) results.Key {
	return results.Key{
		Kind:        "experiment",
		Name:        expID,
		Fingerprint: results.Fingerprint("experiment", expID, sc.Key()),
	}
}

// ExperimentPayload is the persisted form of one experiment run: the
// rendered table plus provenance (how much simulation produced it).
type ExperimentPayload struct {
	ID    string       `json:"id"`
	Title string       `json:"title"`
	Scale string       `json:"scale"`
	Table *stats.Table `json:"table"`
	// Sims is the number of simulations executed to produce the table
	// (0 when every underlying run was itself served from cache).
	Sims int64 `json:"sims"`
	// Seconds is the wall time of the producing run.
	Seconds float64 `json:"seconds"`
}

// loadPersisted consults the persistent store for a spec. Warm-started
// specs persist like any other: their policy's content address is part
// of the key. key is the spec's cacheKey.
func (e *Env) loadPersisted(spec RunSpec, key string) (RunResult, bool) {
	st := e.results.Load()
	if st == nil {
		return RunResult{}, false
	}
	var r RunResult
	if !st.Get(runKey(spec, key), &r) {
		return RunResult{}, false
	}
	return r, true
}

// storePersisted writes a completed run to the persistent store under
// the spec's cacheKey (best-effort: a full disk degrades to "no reuse").
func (e *Env) storePersisted(spec RunSpec, key string, r RunResult) {
	st := e.results.Load()
	if st == nil {
		return
	}
	_ = st.Put(runKey(spec, key), r)
}
