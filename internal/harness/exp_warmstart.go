package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/policy"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// warmCheckpoints are the horizon fractions the convergence study
// samples: each arm is simulated to every fraction of the scale's
// instruction budget, and "converged" is the first checkpoint whose IPC
// reaches warmConvergedFrac of that arm's own full-horizon IPC. The
// ext-warmstart table reports both arms' convergence points and their
// ratio ("converged at (instr)", "converge speedup").
var warmCheckpoints = []float64{0.125, 0.25, 0.5, 1.0}

// warmConvergedFrac is the convergence threshold.
const warmConvergedFrac = 0.99

// warmConvergeInstr returns the instruction count of the first
// checkpoint whose IPC reaches the threshold of the series' final
// (full-horizon) IPC. ipc must have one entry per warmCheckpoints
// fraction; sim is the full-horizon budget.
func warmConvergeInstr(ipc []float64, sim int64) int64 {
	final := ipc[len(ipc)-1]
	for i, frac := range warmCheckpoints {
		if ipc[i] >= warmConvergedFrac*final {
			return int64(frac * float64(sim))
		}
	}
	return sim
}

// warmLadderSpec builds the single-core RunSpec for checkpoint ci of the
// warm-start ladder (warm == nil is the cold arm).
func warmLadderSpec(w trace.Workload, cfg cache.Config, sc Scale, ci int, warm *policy.Envelope) RunSpec {
	scAt := sc
	scAt.Sim = int64(warmCheckpoints[ci] * float64(sc.Sim))
	if scAt.Sim < 1 {
		scAt.Sim = 1
	}
	return RunSpec{Mix: single(w), CacheCfg: cfg, Scale: scAt, PF: BasicPythiaPF(), WarmStart: warm}
}

// trainBestEffort trains (or fetches) a policy, tolerating persist-only
// failures: GetOrTrain delivers the trained envelope even when writing
// it to disk fails, and for an experiment that means "no reuse", never
// "no table" — the result store's own degradation contract.
func trainBestEffort(ctx context.Context, ts TrainSpec) (policy.Envelope, error) {
	env, _, err := TrainPolicyIn(ctx, defaultEnv.policies.Load(), ts)
	if err != nil && env.ID != "" {
		return env, nil
	}
	return env, err
}

// warmStartWorkloads is the convergence study set (a regular and an
// irregular trace; the scale's per-suite cap keeps micro-scale smoke
// tests cheap).
func warmStartWorkloads(sc Scale) ([]trace.Workload, error) {
	names := []string{"459.GemsFDTD-100B", "CC-100B"}
	if sc.WorkloadsPerSuite > 0 && len(names) > sc.WorkloadsPerSuite {
		names = names[:sc.WorkloadsPerSuite]
	}
	ws := make([]trace.Workload, len(names))
	for i, n := range names {
		w, ok := trace.ByName(n)
		if !ok {
			return nil, fmt.Errorf("harness: warm-start workload %s missing", n)
		}
		ws[i] = w
	}
	return ws, nil
}

// ExtWarmStart measures what warm-starting buys: instructions to converged
// IPC, warm (policy restored from a trained envelope) versus cold (from
// scratch), by simulating both arms to a ladder of horizon checkpoints. A
// warm agent starts at its trained policy and should sit at (or near) its
// final IPC from the first checkpoint; a cold agent pays the learning ramp
// first. The last column reports the convergence advantage — how many
// times fewer instructions the warm arm needed.
//
// The experiment honors whatever scale it is given (so it smoke-tests at
// quick scale); the headline runs are
//
//	pythia-bench -exp ext-warmstart -scale default
//	pythia-bench -exp ext-warmstart -scale long
func ExtWarmStart(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	ws, err := warmStartWorkloads(sc)
	if err != nil {
		return nil, err
	}

	// Phase 1: one trained policy per workload (store-deduplicated, so a
	// populated policy store makes re-renders training-free).
	envs := make([]policy.Envelope, len(ws))
	err = RunAll(ctx, len(ws), func(i int) error {
		env, err := trainBestEffort(ctx, TrainSpec{Workload: ws[i], CacheCfg: cfg, Scale: sc, Config: core.BasicConfig()})
		envs[i] = env
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: workload × {cold, warm} × checkpoint, all in parallel into
	// index-addressed slots.
	nc := len(warmCheckpoints)
	ipc := make([]float64, len(ws)*2*nc)
	err = RunAll(ctx, len(ws)*2*nc, func(i int) error {
		wi, arm, ci := i/(2*nc), (i/nc)%2, i%nc
		var warm *policy.Envelope
		if arm == 1 {
			warm = &envs[wi]
		}
		r, err := RunCached(ctx, warmLadderSpec(ws[wi], cfg, sc, ci, warm))
		if err != nil {
			return err
		}
		ipc[i] = r.IPC[0]
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title: "Warm-start study: instructions to converged IPC, warm vs cold",
		Header: []string{"workload", "arm",
			"IPC@12.5%", "IPC@25%", "IPC@50%", "IPC@100%", "converged at (instr)", "converge speedup"},
	}
	for wi, w := range ws {
		cold := ipc[wi*2*nc : wi*2*nc+nc]
		warm := ipc[wi*2*nc+nc : wi*2*nc+2*nc]
		coldConv := warmConvergeInstr(cold, sc.Sim)
		warmConv := warmConvergeInstr(warm, sc.Sim)
		for arm, series := range [][]float64{cold, warm} {
			name, conv, adv := "cold", coldConv, "-"
			if arm == 1 {
				name, conv = "warm", warmConv
				adv = fmt.Sprintf("%.1fx", float64(coldConv)/float64(warmConv))
			}
			row := []string{w.Base, name}
			for ci := 0; ci < nc; ci++ {
				row = append(row, fmt.Sprintf("%.3f", series[ci]))
			}
			row = append(row, fmt.Sprint(conv), adv)
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("converged = first checkpoint reaching %.0f%% of the arm's own full-horizon IPC (budget %d instr/core)", 100*warmConvergedFrac, sc.Sim),
		"warm arms restore the policy trained on the same workload at this scale (self-transfer); training costs are excluded from both arms",
		"with a populated policy store, warm evaluations perform zero training simulations")
	return t, nil
}
