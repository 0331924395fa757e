package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// fig1Workloads are the six example workloads of Fig. 1 (our trace-segment
// names differ from the paper's DPC2 segment suffixes).
func fig1Workloads() []string {
	return []string{
		"482.sphinx3-100B", "canneal-100B", "facesim-100B",
		"459.GemsFDTD-100B", "CC-100B", "PageRankDelta-100B",
	}
}

// Fig1Motivation reproduces Fig. 1: coverage, overprediction and IPC
// improvement of SPP, Bingo and Pythia on six example workloads, all from
// one pair grid.
func Fig1Motivation(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := []PF{SPPPF(), BingoPF(), BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Fig. 1: motivation workloads (single-core)",
		Header: []string{"workload", "prefetcher", "coverage", "overpred", "speedup"},
	}
	var ws []trace.Workload
	for _, name := range fig1Workloads() {
		w, ok := trace.ByName(name)
		if !ok {
			t.Notes = append(t.Notes, "missing workload "+name)
			continue
		}
		ws = append(ws, w)
	}
	pairs, err := pairGrid(ctx, pfCells(cache.DefaultConfig(1), sc, singles(ws), pfs))
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		for j, pf := range pfs {
			p := pairs[j][wi]
			t.AddRow(w.Name, pf.Name, pct(p.coverage()), pct(p.overpred()), fmt.Sprintf("%.3f", p.speedup()))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: Bingo > SPP on sphinx3/canneal/facesim; SPP > Bingo on GemsFDTD;",
		"Bingo loses on Ligra-CC despite coverage; Pythia competitive everywhere")
	return t, nil
}

// Fig7Coverage reproduces Fig. 7: per-suite prefetch coverage and
// overprediction at the LLC-memory boundary, single-core. Every (suite,
// prefetcher) cell comes from one pair grid; the AVG rows take each
// prefetcher's values over all suites in suite order.
func Fig7Coverage(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 7: coverage and overprediction per suite (single-core)",
		Header: []string{"suite", "prefetcher", "coverage", "overpred"},
	}
	suites := trace.Suites()
	var cells []speedupCell
	for _, suite := range suites {
		cells = append(cells, pfCells(cfg, sc, singles(suiteWorkloads(suite, sc)), pfs)...)
	}
	pairs, err := pairGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	covs := make([][]float64, len(pfs))
	overs := make([][]float64, len(pfs))
	for i, ps := range pairs {
		j := i % len(pfs)
		_, cov, over := pairMetrics(ps)
		covs[j] = append(covs[j], cov...)
		overs[j] = append(overs[j], over...)
		t.AddRow(suites[i/len(pfs)], pfs[j].Name, pct(stats.Mean(cov)), pct(stats.Mean(over)))
	}
	for j, pf := range pfs {
		t.AddRow("AVG", pf.Name, pct(stats.Mean(covs[j])), pct(stats.Mean(overs[j])))
	}
	t.Notes = append(t.Notes, "paper: Pythia 71% coverage / 27% overpredictions; MLOP 64%/110%")
	return t, nil
}

// Fig9aSingleCore reproduces Fig. 9(a): per-suite geomean speedup over the
// no-prefetching baseline in the single-core system.
func Fig9aSingleCore(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 9a: per-suite speedup (single-core)",
		Header: append([]string{"suite"}, pfNames(pfs)...),
	}
	labels, rows := groupRows(cache.DefaultConfig(1), sc, suiteMixes(sc), trace.Mix.Suite)
	if err := pfRows(ctx, t, labels, rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: Pythia 1.224 geomean; outperforms MLOP/Bingo/SPP by 3.4/3.8/4.3%")
	return t, nil
}

// combinationStacks returns the Fig. 9b hybrid ladder.
func combinationStacks() []PF {
	st := StridePF()
	s := SPPPF()
	b := BingoPF()
	d := DSPatchPF()
	m := MLOPPF()
	return []PF{
		st,
		HybridPF("St+S", st, s),
		HybridPF("St+S+B", st, s, b),
		HybridPF("St+S+B+D", st, s, b, d),
		HybridPF("St+S+B+D+M", st, s, b, d, m),
		BasicPythiaPF(),
	}
}

// Fig9bCombinations reproduces Fig. 9(b): Pythia vs stacked combinations of
// prior prefetchers, single-core.
func Fig9bCombinations(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 9b: prefetcher combinations (single-core)",
		Header: []string{"configuration", "geomean speedup"},
	}
	stacks := combinationStacks()
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, suiteMixes(sc), stacks...)
	if err != nil {
		return nil, err
	}
	for j, pf := range stacks {
		t.AddRowf(pf.Name, g[j])
	}
	t.Notes = append(t.Notes, "paper: Pythia outperforms the full St+S+B+D+M stack by 1.4% at 1C")
	return t, nil
}

func pfNames(pfs []PF) []string {
	out := make([]string, len(pfs))
	for i, p := range pfs {
		out[i] = p.Name
	}
	return out
}
