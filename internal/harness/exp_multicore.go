package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Fig10aFourCore reproduces Fig. 10(a): per-suite geomean speedup in the
// four-core system over homogeneous and heterogeneous mixes.
func Fig10aFourCore(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 10a: per-suite speedup (four-core)",
		Header: append([]string{"suite"}, pfNames(pfs)...),
	}
	labels, rows := groupRows(cache.DefaultConfig(4), sc, mixesFor(4, sc), trace.Mix.Suite)
	if err := pfRows(ctx, t, labels, rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: Pythia outperforms MLOP/Bingo/SPP by 5.8/8.2/6.5% at 4C")
	return t, nil
}

// Fig10bCombinations reproduces Fig. 10(b): prefetcher stacks at four
// cores, where combining overpredictors hurts.
func Fig10bCombinations(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 10b: prefetcher combinations (four-core)",
		Header: []string{"configuration", "geomean speedup"},
	}
	stacks := combinationStacks()
	g, err := pfGeomeans(ctx, cache.DefaultConfig(4), sc, mixesFor(4, sc), stacks...)
	if err != nil {
		return nil, err
	}
	for j, pf := range stacks {
		t.AddRowf(pf.Name, g[j])
	}
	t.Notes = append(t.Notes, "paper: stacking prefetchers beyond St+S lowers 4C performance; Pythia wins by 4.9%")
	return t, nil
}

// Fig11BandwidthOblivious reproduces Fig. 11: the bandwidth-oblivious
// ablation of Pythia relative to basic Pythia under the MTPS sweep.
func Fig11BandwidthOblivious(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 11: bandwidth-oblivious Pythia vs basic Pythia",
		Header: []string{"MTPS", "basic", "bw-oblivious", "delta"},
	}
	variants := []PF{BasicPythiaPF(), PythiaPF(core.BandwidthObliviousConfig())}
	g, err := rowGeomeans(ctx, mtpsRows(sc, BandwidthPoints, suiteMixes(sc)), variants)
	if err != nil {
		return nil, err
	}
	for i, mtps := range BandwidthPoints {
		b, o := g[i][0], g[i][1]
		t.AddRow(fmt.Sprint(mtps), fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", o), pct(o/b-1))
	}
	t.Notes = append(t.Notes,
		"paper: the oblivious variant loses up to 4.6% at 150 MTPS and converges to basic at high bandwidth")
	return t, nil
}

// Fig12Unseen reproduces Fig. 12: performance on the CVP-2 "unseen" trace
// categories in single-core and four-core systems.
func Fig12Unseen(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 12: performance on unseen CVP-2 traces",
		Header: append([]string{"system", "category"}, pfNames(pfs)...),
	}
	// Both systems' category rows come from one speedup grid.
	cvp2 := trace.BySuite(trace.SuiteCVP2)
	category := func(m trace.Mix) string { return m.Workloads[0].Base }
	var systems, labels []string
	var rows []speedupCell
	for _, cores := range []int{1, 4} {
		mixes := singles(cvp2)
		for i, w := range cvp2 {
			if cores > 1 {
				mixes[i] = trace.HomogeneousMix(w, cores)
			}
		}
		l, r := groupRows(cache.DefaultConfig(cores), sc, mixes, category)
		for range l {
			systems = append(systems, fmt.Sprintf("%dC", cores))
		}
		labels, rows = append(labels, l...), append(rows, r...)
	}
	g, err := rowGeomeans(ctx, rows, pfs)
	if err != nil {
		return nil, err
	}
	for i, row := range g {
		addRow2f(t, systems[i], labels[i], row...)
	}
	t.Notes = append(t.Notes, "paper: Pythia wins on traces never used for tuning (crypto/INT/FP/server)")
	return t, nil
}
