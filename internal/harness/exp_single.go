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
// improvement of SPP, Bingo and Pythia on six example workloads. All
// (workload, prefetcher) cells simulate in parallel; rows are assembled in
// presentation order afterwards.
func Fig1Motivation(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	pfs := []PF{SPPPF(), BingoPF(), BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Fig. 1: motivation workloads (single-core)",
		Header: []string{"workload", "prefetcher", "coverage", "overpred", "speedup"},
	}
	type job struct {
		w  trace.Workload
		pf PF
	}
	var jobs []job
	for _, name := range fig1Workloads() {
		w, ok := trace.ByName(name)
		if !ok {
			t.Notes = append(t.Notes, "missing workload "+name)
			continue
		}
		for _, pf := range pfs {
			jobs = append(jobs, job{w, pf})
		}
	}
	type cell struct{ cov, over, sp float64 }
	cells := make([]cell, len(jobs))
	err := RunAll(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		cov, over, err := coverageOverpred(ctx, j.w, cfg, sc, j.pf)
		if err != nil {
			return err
		}
		sp, err := SpeedupOn(ctx, single(j.w), cfg, sc, j.pf)
		if err != nil {
			return err
		}
		cells[i] = cell{cov, over, sp}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		c := cells[i]
		t.AddRow(j.w.Name, j.pf.Name, pct(c.cov), pct(c.over), fmt.Sprintf("%.3f", c.sp))
	}
	t.Notes = append(t.Notes,
		"paper shape: Bingo > SPP on sphinx3/canneal/facesim; SPP > Bingo on GemsFDTD;",
		"Bingo loses on Ligra-CC despite coverage; Pythia competitive everywhere")
	return t, nil
}

// Fig7Coverage reproduces Fig. 7: per-suite prefetch coverage and
// overprediction at the LLC-memory boundary, single-core.
func Fig7Coverage(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 7: coverage and overprediction per suite (single-core)",
		Header: []string{"suite", "prefetcher", "coverage", "overpred"},
	}
	// Simulate every (suite, prefetcher, workload) cell in parallel, then
	// aggregate in presentation order.
	type job struct {
		suite string
		pf    PF
		w     trace.Workload
	}
	var jobs []job
	for _, suite := range trace.Suites() {
		for _, pf := range pfs {
			for _, w := range suiteWorkloads(suite, sc) {
				jobs = append(jobs, job{suite, pf, w})
			}
		}
	}
	covs := make([]float64, len(jobs))
	overs := make([]float64, len(jobs))
	err := RunAll(ctx, len(jobs), func(i int) error {
		var err error
		covs[i], overs[i], err = coverageOverpred(ctx, jobs[i].w, cfg, sc, jobs[i].pf)
		return err
	})
	if err != nil {
		return nil, err
	}
	type agg struct{ cov, over []float64 }
	total := map[string]*agg{}
	for i := 0; i < len(jobs); {
		suite, pf := jobs[i].suite, jobs[i].pf
		var scov, sover []float64
		for ; i < len(jobs) && jobs[i].suite == suite && jobs[i].pf.Name == pf.Name; i++ {
			scov = append(scov, covs[i])
			sover = append(sover, overs[i])
		}
		if total[pf.Name] == nil {
			total[pf.Name] = &agg{}
		}
		total[pf.Name].cov = append(total[pf.Name].cov, scov...)
		total[pf.Name].over = append(total[pf.Name].over, sover...)
		t.AddRow(suite, pf.Name, pct(stats.Mean(scov)), pct(stats.Mean(sover)))
	}
	for _, pf := range pfs {
		a := total[pf.Name]
		t.AddRow("AVG", pf.Name, pct(stats.Mean(a.cov)), pct(stats.Mean(a.over)))
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
