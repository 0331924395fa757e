package harness

import (
	"context"
	"fmt"
	"sort"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// ExtendedExperiments returns studies beyond the paper's figures: the
// automated design-space exploration methods of §4.3 exercised end to end,
// and ablations of this library's modelling choices (DESIGN.md).
func ExtendedExperiments() []Experiment {
	return []Experiment{
		{"ext-pruning", "Action-list pruning study (§4.3.2 method)", ExtActionPruning},
		{"ext-autotune", "Reward/hyperparameter grid search (§4.3.3 method)", ExtAutoTune},
		{"ext-fdp", "Inherent vs bolt-on bandwidth awareness: Pythia vs FDP-throttled SPP", ExtFDPComparison},
		{"ext-xlat", "Virtual-to-physical translation ablation", ExtTranslation},
		{"ext-fixedpoint", "16-bit fixed-point QVStore ablation", ExtFixedPoint},
		{"ext-longhorizon", "Long-horizon study: paper Table 2 hyperparameters over streamed traces", ExtLongHorizon},
		{"ext-generalization", "Cross-workload generalization matrix: train-on-A / evaluate-on-B speedup delta", ExtGeneralization},
		{"ext-warmstart", "Warm-start study: instructions to converged IPC, warm vs cold", ExtWarmStart},
		{"scorecard", "Reproduction scorecard: the paper's qualitative claims", RunScorecard},
	}
}

// AllExperiments returns the paper experiments followed by the extended
// studies.
func AllExperiments() []Experiment {
	return append(Experiments(), ExtendedExperiments()...)
}

// designWorkloads is the small tuning set used by the design-space studies
// (the paper uses 10 random traces for its grid search).
func designWorkloads() []trace.Workload {
	names := []string{
		"459.GemsFDTD-100B", "410.bwaves-100B", "482.sphinx3-100B",
		"429.mcf-100B", "CC-100B", "cassandra-100B",
	}
	var out []trace.Workload
	for _, n := range names {
		if w, ok := trace.ByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

// ExtActionPruning reproduces the §4.3.2 pruning method: drop each action
// from the basic list individually and measure the performance impact;
// actions whose removal does not hurt are pruning candidates.
func ExtActionPruning(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Action-list pruning: performance impact of dropping each action",
		Header: []string{"dropped action", "geomean speedup", "delta vs full list"},
	}
	pfs := []PF{BasicPythiaPF()}
	var drops []int
	full := core.BasicConfig().Actions
	for _, drop := range full {
		if drop == 0 {
			continue // the no-prefetch action is structural
		}
		c := core.BasicConfig()
		c.Name = fmt.Sprintf("pythia-drop%+d", drop)
		c.Actions = nil
		for _, a := range full {
			if a != drop {
				c.Actions = append(c.Actions, a)
			}
		}
		drops = append(drops, drop)
		pfs = append(pfs, PythiaPF(c))
	}
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, singles(designWorkloads()), pfs...)
	if err != nil {
		return nil, err
	}
	base := g[0]
	t.AddRow("(none)", fmt.Sprintf("%.3f", base), "-")
	for i, drop := range drops {
		sp := g[i+1]
		t.AddRow(fmt.Sprintf("%+d", drop), fmt.Sprintf("%.3f", sp), pct(sp/base-1))
	}
	t.Notes = append(t.Notes,
		"paper §4.3.2: actions whose removal leaves performance unchanged are pruned from [-63,63] down to 16")
	return t, nil
}

// ExtAutoTune reproduces the §4.3.3 method at small scale: a uniform grid
// over hyperparameters evaluated on a tuning suite, reporting the top
// configurations.
func ExtAutoTune(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Hyperparameter grid search (top configurations)",
		Header: []string{"alpha", "gamma", "epsilon", "geomean speedup"},
	}
	type result struct {
		alpha, gamma, eps, sp float64
	}
	var results []result
	var pfs []PF
	for _, alpha := range []float64{0.02, 0.1, 0.3} {
		for _, gamma := range []float64{0.2, 0.556, 0.8} {
			for _, eps := range []float64{0.002, 0.01, 0.05} {
				c := core.BasicConfig()
				c.Name = fmt.Sprintf("pythia-a%v-g%v-e%v", alpha, gamma, eps)
				c.Alpha, c.Gamma, c.Epsilon = alpha, gamma, eps
				results = append(results, result{alpha, gamma, eps, 0})
				pfs = append(pfs, PythiaPF(c))
			}
		}
	}
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, singles(designWorkloads()), pfs...)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].sp = g[i]
	}
	sort.Slice(results, func(i, j int) bool { return results[i].sp > results[j].sp })
	top := results
	if len(top) > 8 {
		top = top[:8]
	}
	for _, r := range top {
		t.AddRow(fmt.Sprintf("%g", r.alpha), fmt.Sprintf("%g", r.gamma),
			fmt.Sprintf("%g", r.eps), fmt.Sprintf("%.3f", r.sp))
	}
	t.Notes = append(t.Notes,
		"paper §4.3.3: 10x10x10 exponential grid on a 10-trace suite, then full-suite validation of the top 25")
	return t, nil
}

// ExtFDPComparison contrasts inherent system awareness (Pythia) with a
// bolt-on throttle (FDP over SPP), the distinction §1 draws, at normal and
// constrained bandwidth.
func ExtFDPComparison(ctx context.Context, sc Scale) (*stats.Table, error) {
	fdpPF := PF{Name: "FDP(SPP)", L2: func(sys prefetch.System) prefetch.Prefetcher {
		return prefetch.NewFDP(prefetch.DefaultFDPConfig(), prefetch.NewSPP(prefetch.DefaultSPPConfig()), sys)
	}}
	pfs := []PF{SPPPF(), fdpPF, BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Inherent vs bolt-on bandwidth awareness",
		Header: append([]string{"MTPS"}, pfNames(pfs)...),
	}
	points := []int{150, 2400}
	if err := pfRows(ctx, t, itoas(points), mtpsRows(sc, points, singles(designWorkloads())), pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"FDP recovers part of SPP's low-bandwidth loss by throttling after the fact;",
		"Pythia's reward-inherent feedback retains more performance (paper §1, §6.3.3)")
	return t, nil
}

// ExtTranslation measures the virtual-to-physical translation ablation:
// scattered physical frames break cross-page virtual contiguity.
func ExtTranslation(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := []PF{SPPPF(), BingoPF(), BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Address translation ablation",
		Header: append([]string{"config"}, pfNames(pfs)...),
	}
	mixes := singles(designWorkloads())
	var rows []speedupCell
	for _, translate := range []bool{false, true} {
		cfg := cache.DefaultConfig(1)
		cfg.Translate = translate
		rows = append(rows, speedupCell{cfg: cfg, sc: sc, mixes: mixes})
	}
	labels := []string{"virtual (identity)", "translated (scattered frames)"}
	if err := pfRows(ctx, t, labels, rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"in-page prefetchers are translation-invariant by construction; deltas survive, page-crossing patterns do not")
	return t, nil
}

// ExtFixedPoint verifies that 16-bit fixed-point Q-value storage (the
// hardware's Table 4 entry width) matches the float reference.
func ExtFixedPoint(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "16-bit fixed-point QVStore vs float reference",
		Header: []string{"config", "geomean speedup"},
	}
	fp := core.BasicConfig()
	fp.Name = "pythia-fixp"
	fp.FixedPoint = true
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, singles(designWorkloads()), BasicPythiaPF(), PythiaPF(fp))
	if err != nil {
		return nil, err
	}
	t.AddRowf("float64 Q-values", g[0])
	t.AddRowf("Q8.8 fixed point", g[1])
	t.Notes = append(t.Notes, "the paper's hardware stores 16-bit Q-values; parity here validates that width")
	return t, nil
}
