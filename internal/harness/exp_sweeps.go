package harness

import (
	"context"
	"fmt"
	"sort"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// percentileRows adds the sorted-curve summary of Figs. 17-18: per
// percentile, each prefetcher's speedup at that point of its curve.
func percentileRows(t *stats.Table, curves [][]float64) {
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
		row := make([]float64, len(curves))
		for j, c := range curves {
			row[j] = stats.Percentile(c, p)
		}
		t.AddRowf(fmt.Sprintf("p%.0f", p), row...)
	}
}

// Fig17LineGraph1C reproduces Fig. 17: the sorted single-core performance
// curve of every prefetcher, summarized at deciles (the paper plots 150
// traces; we report the distribution).
func Fig17LineGraph1C(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs() // the last is basic Pythia
	t := &stats.Table{
		Title:  "Fig. 17: single-core speedup distribution (sorted, deciles)",
		Header: append([]string{"percentile"}, pfNames(pfs)...),
	}
	mixes := suiteMixes(sc)
	curves, err := speedupGrid(ctx, pfCells(cache.DefaultConfig(1), sc, mixes, pfs))
	if err != nil {
		return nil, err
	}
	percentileRows(t, curves)
	// Best/worst traces for Pythia, as the paper calls out.
	type wl struct {
		name string
		sp   float64
	}
	list := make([]wl, len(mixes))
	for i, m := range mixes {
		list[i] = wl{m.Name, curves[len(pfs)-1][i]}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].sp < list[j].sp })
	if len(list) > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("Pythia worst: %s (%.3f); best: %s (%.3f)",
				list[0].name, list[0].sp, list[len(list)-1].name, list[len(list)-1].sp))
	}
	return t, nil
}

// Fig18LineGraph4C reproduces Fig. 18: the four-core mix speedup
// distribution.
func Fig18LineGraph4C(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 18: four-core mix speedup distribution (sorted, deciles)",
		Header: append([]string{"percentile"}, pfNames(pfs)...),
	}
	curves, err := speedupGrid(ctx, pfCells(cache.DefaultConfig(4), sc, mixesFor(4, sc), pfs))
	if err != nil {
		return nil, err
	}
	percentileRows(t, curves)
	return t, nil
}

// Fig19FeatureSweep reproduces Fig. 19 / §4.3.1: the automated feature
// selection sweep — Pythia's speedup, coverage and overprediction across
// feature combinations, sorted by speedup.
func Fig19FeatureSweep(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	t := &stats.Table{
		Title:  "Fig. 19: feature-combination design space (sorted by speedup)",
		Header: []string{"features", "speedup", "coverage", "overpred"},
	}
	// All single features plus selected 2-feature combinations (the full
	// 32+496 sweep is the paper's cluster-scale search; the candidate set
	// spans every component class).
	var configs []core.Config
	b := core.BasicConfig()
	for _, f := range core.AllFeatures() {
		if f.CF == core.CFNone && f.DF == core.DFNone {
			continue
		}
		configs = append(configs, b.WithFeatures("1f:"+f.String(), f))
	}
	configs = append(configs, fig16Candidates()...)
	// The design-space sweep is embarrassingly parallel: every candidate
	// config evaluates independently, in one pair grid.
	ws := suiteWorkloads(trace.SuiteSPEC06, sc)
	pairs, err := pairGrid(ctx, pfCells(cfg, sc, singles(ws), pythiaPFs(configs)))
	if err != nil {
		return nil, err
	}
	type row struct {
		name            string
		sp, cov, overpr float64
	}
	rows := make([]row, len(configs))
	for ci, cand := range configs {
		sps, covs, overs := pairMetrics(pairs[ci])
		rows[ci] = row{featureNames(cand), stats.Geomean(sps), stats.Mean(covs), stats.Mean(overs)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sp < rows[j].sp })
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.3f", r.sp), pct(r.cov), pct(r.overpr))
	}
	t.Notes = append(t.Notes, "paper: performance correlates with coverage; the PC+Delta & last-4-deltas pair wins")
	return t, nil
}

// Fig20Hyperparams reproduces Fig. 20: sensitivity to the exploration rate
// ε and learning rate α (log sweeps).
func Fig20Hyperparams(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 20: hyperparameter sensitivity",
		Header: []string{"parameter", "value", "geomean speedup"},
	}
	// Both log sweeps fan out across their sample points at once.
	epss := []float64{1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0}
	alphas := []float64{1e-5, 1e-3, 0.0065, 0.05, 0.1, 0.3, 1.0}
	var pfs []PF
	for _, eps := range epss {
		c := core.BasicConfig()
		c.Name = fmt.Sprintf("pythia-eps%g", eps)
		c.Epsilon = eps
		pfs = append(pfs, PythiaPF(c))
	}
	for _, alpha := range alphas {
		c := core.BasicConfig()
		c.Name = fmt.Sprintf("pythia-alpha%g", alpha)
		c.Alpha = alpha
		pfs = append(pfs, PythiaPF(c))
	}
	mixes := singles(suiteWorkloads(trace.SuiteSPEC06, sc))
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, mixes, pfs...)
	if err != nil {
		return nil, err
	}
	for i, eps := range epss {
		addRow2f(t, "epsilon", fmt.Sprintf("%g", eps), g[i])
	}
	for i, alpha := range alphas {
		addRow2f(t, "alpha", fmt.Sprintf("%g", alpha), g[len(epss)+i])
	}
	t.Notes = append(t.Notes,
		"paper: performance collapses as epsilon->1; alpha has an interior optimum",
		"(the optimum alpha/epsilon shift upward at this library's scaled-down horizon; see DESIGN.md)")
	return t, nil
}

// Fig21ContextPrefetcher reproduces Fig. 21 / Appendix B.4: Pythia vs the
// hardware-context contextual-bandit prefetcher CP-HW.
func Fig21ContextPrefetcher(ctx context.Context, sc Scale) (*stats.Table, error) {
	return versusTable(ctx, sc, "Fig. 21: Pythia vs CP-HW", CPHWPF(),
		"paper: Pythia outperforms CP-HW by 5.3% (1C) and 7.6% (4C) via long-term credit and bandwidth awareness")
}

// Fig22Power7 reproduces Fig. 22 / Appendix B.5: Pythia vs the POWER7-style
// adaptive prefetcher.
func Fig22Power7(ctx context.Context, sc Scale) (*stats.Table, error) {
	return versusTable(ctx, sc, "Fig. 22: Pythia vs POWER7 adaptive prefetcher", Power7PF(),
		"paper: Pythia outperforms the POWER7 prefetcher by 4.5% (1C) and 6.5% (4C)")
}

// versusTable builds the 1C+4C per-suite comparison used by Figs. 21-22.
func versusTable(ctx context.Context, sc Scale, title string, rival PF, note string) (*stats.Table, error) {
	pfs := []PF{rival, BasicPythiaPF()}
	t := &stats.Table{
		Title:  title,
		Header: append([]string{"system", "suite"}, pfNames(pfs)...),
	}
	// Single-core per suite, then the four-core aggregate.
	labels, rows := groupRows(cache.DefaultConfig(1), sc, suiteMixes(sc), trace.Mix.Suite)
	rows = append(rows, speedupCell{cfg: cache.DefaultConfig(4), sc: sc, mixes: mixesFor(4, sc)})
	g, err := rowGeomeans(ctx, rows, pfs)
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		addRow2f(t, "1C", label, g[i]...)
	}
	addRow2f(t, "4C", "ALL", g[len(labels)]...)
	t.Notes = append(t.Notes, note)
	return t, nil
}

// Fig23Warmup reproduces Fig. 23: sensitivity to the number of warmup
// instructions.
func Fig23Warmup(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 23: sensitivity to warmup length",
		Header: append([]string{"warmup instr"}, pfNames(pfs)...),
	}
	fracs := []float64{0, 0.05, 0.15, 0.25, 0.5, 1.0}
	rows := make([]speedupCell, len(fracs))
	labels := make([]string, len(fracs))
	for i, f := range fracs {
		scv := sc
		scv.Warmup = int64(float64(sc.Warmup) * f)
		rows[i] = speedupCell{cfg: cache.DefaultConfig(1), sc: scv, mixes: suiteMixes(scv)}
		labels[i] = fmt.Sprint(scv.Warmup)
	}
	if err := pfRows(ctx, t, labels, rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: Pythia outperforms prior prefetchers at every warmup length, including none")
	return t, nil
}
