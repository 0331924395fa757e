package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/policy"
	"pythia/internal/prefetch"
	"pythia/internal/trace"
)

// --- Trained-policy lifecycle ---
//
// The paper frames Pythia's learned policy as programmable state that can
// be customized and reused in silicon without refabrication. This file is
// the software counterpart: TrainPolicyIn runs one training simulation,
// snapshots the learned QVStore into a policy.Envelope, and persists it in
// a policy.Store — so later evaluations warm-start from the envelope
// (RunSpec.WarmStart) instead of re-paying the training ramp, and a repeat
// training request is a store hit with zero simulations.

// TrainSpec describes one policy-training run: a single-core simulation of
// one workload with a Pythia configuration, whose learned Q-table is the
// artifact.
type TrainSpec struct {
	Workload trace.Workload
	CacheCfg cache.Config
	Scale    Scale
	Config   core.Config
}

// Provenance renders the spec's training identity: the workload's display
// name and canonical trace key, the scale key, and the agent seed.
func (ts TrainSpec) Provenance() policy.Provenance {
	return policy.Provenance{
		Workload: ts.Workload.Name,
		Trace:    ts.Workload.Key(ts.Scale.TraceLen),
		Scale:    ts.Scale.Key(),
		Seed:     ts.Config.Seed,
		Cores:    1,
	}
}

// PolicyID returns the content address the trained policy will carry —
// deterministic across processes, so any store populated by one run
// serves every later identical request.
func (ts TrainSpec) PolicyID() string {
	return policy.ID(ts.Config, ts.Provenance())
}

// TrainPolicyIn trains the policy described by ts, or serves it from st.
// A store hit (or a concurrent duplicate) costs zero simulations — hit
// reports which, so callers can prove the accounting via SimCount deltas.
// st may be nil: training then always simulates (but concurrent identical
// requests still share one run). The training run itself goes through Run
// with a TrainPolicy post-run hook, composing with RunCached's
// hook-exclusion rule rather than bypassing it: a training run is never
// served from, or leaked into, the simulation result caches under a
// cold-run key.
func TrainPolicyIn(ctx context.Context, st *policy.Store, ts TrainSpec) (policy.Envelope, bool, error) {
	if err := ts.Config.Validate(); err != nil {
		return policy.Envelope{}, false, fmt.Errorf("harness: train %s: %w", ts.Workload.Name, err)
	}
	train := func() (policy.Envelope, error) {
		var env policy.Envelope
		var envErr error
		spec := RunSpec{
			Mix:      single(ts.Workload),
			CacheCfg: ts.CacheCfg,
			Scale:    ts.Scale,
			PF:       PythiaPF(ts.Config),
			TrainPolicy: func(pfs []prefetch.Prefetcher) {
				for _, p := range pfs {
					if py, ok := p.(*core.Pythia); ok {
						prov := ts.Provenance()
						prov.Sims = 1
						env, envErr = policy.New(py, prov)
						return
					}
				}
				envErr = fmt.Errorf("harness: train %s: run produced no Pythia agent", ts.Workload.Name)
			},
		}
		if _, err := defaultEnv.run(ctx, spec); err != nil {
			return policy.Envelope{}, err
		}
		if envErr != nil {
			return policy.Envelope{}, envErr
		}
		return env, nil
	}
	if st == nil {
		env, _, err := defaultEnv.trainFlight.Do(ts.PolicyID(), train)
		return env, false, err
	}
	return st.GetOrTrain(ts.PolicyID(), train)
}
