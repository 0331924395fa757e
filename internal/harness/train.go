package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/policy"
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
// A store hit costs zero simulations — hit reports it, so callers can
// prove the accounting via SimCount deltas. st may be nil: training then
// always simulates. The training run goes through Run, never RunCached,
// and snapshots the agent Run returns live in RunResult.PFs.
func TrainPolicyIn(ctx context.Context, st *policy.Store, ts TrainSpec) (policy.Envelope, bool, error) {
	if err := ts.Config.Validate(); err != nil {
		return policy.Envelope{}, false, fmt.Errorf("harness: train %s: %w", ts.Workload.Name, err)
	}
	train := func() (policy.Envelope, error) {
		res, err := Run(ctx, RunSpec{Mix: single(ts.Workload), CacheCfg: ts.CacheCfg, Scale: ts.Scale, PF: PythiaPF(ts.Config)})
		if err != nil {
			return policy.Envelope{}, err
		}
		prov := ts.Provenance()
		prov.Sims = 1
		return policy.New(res.PFs[0].(*core.Pythia), prov)
	}
	if st == nil {
		env, err := train()
		return env, false, err
	}
	return st.GetOrTrain(ts.PolicyID(), train)
}
