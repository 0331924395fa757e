package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Experiment is one reproducible table/figure from the paper.
type Experiment struct {
	// ID is the paper's label ("fig9a", "table4", ...).
	ID string
	// Title describes what the experiment shows.
	Title string
	// Run executes the experiment at a scale and renders the result. A
	// simulation failure (or a canceled ctx) aborts the experiment and
	// surfaces here as an error; a nil error guarantees a complete table.
	Run func(ctx context.Context, sc Scale) (*stats.Table, error)
}

// Experiments returns every experiment in the paper's presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Basic Pythia configuration (Table 2)", Table2BasicConfig},
		{"table4", "Pythia storage overhead (Table 4)", Table4Storage},
		{"table7", "Evaluated prefetcher configurations (Table 7)", Table7PrefetcherConfigs},
		{"table8", "Area and power overhead (Table 8)", Table8AreaPower},
		{"fig1", "Motivation: coverage/overprediction/performance on six workloads (Fig. 1)", Fig1Motivation},
		{"fig7", "Coverage and overprediction per suite, single-core (Fig. 7)", Fig7Coverage},
		{"fig8a", "Speedup vs core count (Fig. 8a)", Fig8aCores},
		{"fig8b", "Speedup vs DRAM bandwidth (Fig. 8b)", Fig8bBandwidth},
		{"fig8c", "Speedup vs LLC size (Fig. 8c)", Fig8cLLCSize},
		{"fig8d", "Multi-level prefetching vs DRAM bandwidth (Fig. 8d)", Fig8dMultiLevel},
		{"fig9a", "Per-suite speedup, single-core (Fig. 9a)", Fig9aSingleCore},
		{"fig9b", "Prefetcher combinations, single-core (Fig. 9b)", Fig9bCombinations},
		{"fig10a", "Per-suite speedup, four-core (Fig. 10a)", Fig10aFourCore},
		{"fig10b", "Prefetcher combinations, four-core (Fig. 10b)", Fig10bCombinations},
		{"fig11", "Bandwidth-oblivious Pythia vs basic (Fig. 11)", Fig11BandwidthOblivious},
		{"fig12", "Performance on unseen CVP-2 traces (Fig. 12)", Fig12Unseen},
		{"fig13", "Q-value learning curves, GemsFDTD case study (Fig. 13)", Fig13QValueCurves},
		{"fig14", "Bandwidth-usage buckets and performance on Ligra-CC (Fig. 14)", Fig14BandwidthBuckets},
		{"fig15", "Basic vs strict Pythia on Ligra (Fig. 15)", Fig15StrictPythia},
		{"fig16", "Basic vs feature-optimized Pythia on SPEC06 (Fig. 16)", Fig16FeatureOpt},
		{"fig17", "Single-core performance line graph (Fig. 17)", Fig17LineGraph1C},
		{"fig18", "Four-core performance line graph (Fig. 18)", Fig18LineGraph4C},
		{"fig19", "Feature-combination design space (Fig. 19)", Fig19FeatureSweep},
		{"fig20", "Hyperparameter sensitivity (Fig. 20)", Fig20Hyperparams},
		{"fig21", "Pythia vs context prefetcher CP-HW (Fig. 21)", Fig21ContextPrefetcher},
		{"fig22", "Pythia vs POWER7 adaptive prefetcher (Fig. 22)", Fig22Power7},
		{"fig23", "Sensitivity to warmup length (Fig. 23)", Fig23Warmup},
	}
}

// ExperimentByID finds an experiment, including the extended studies.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// pct formats a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// speedupCell is one cell of a speedup table: prefetcher pf against the
// no-prefetching baseline on each of mixes, at one system configuration
// and scale.
type speedupCell struct {
	cfg   cache.Config
	sc    Scale
	pf    PF
	mixes []trace.Mix
}

// runGrid is the one fan-out behind every experiment table. It runs
// RunCached on every spec in a single RunAll, so a whole table's
// simulations share the sim slots at once, and returns the results in
// spec order. A spec that recurs (a baseline shared by several cells)
// simulates once: RunCached deduplicates it. Tables aggregate the
// results in order (stats.Geomean sums logs in slice order), so a table
// is byte-identical at any worker count.
func runGrid(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	err := RunAll(ctx, len(specs), func(i int) error {
		var err error
		out[i], err = RunCached(ctx, specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runPair is one mix of a speedup cell: its no-prefetching baseline run
// and its prefetched run.
type runPair struct{ base, pf RunResult }

func (p runPair) speedup() float64 { return Speedup(p.pf, p.base) }

// coverage and overpred are the artifact-formula coverage and
// overprediction of the prefetched run against its baseline.
func (p runPair) coverage() float64 {
	return stats.Coverage(p.base.SumLLCLoadMisses(), p.pf.SumLLCLoadMisses())
}

func (p runPair) overpred() float64 {
	return stats.Overprediction(p.base.SumDRAMReads(), p.pf.SumDRAMReads())
}

// pairGrid runs every cell's baseline and prefetched runs in one runGrid
// and returns each cell's pairs in mix order.
func pairGrid(ctx context.Context, cells []speedupCell) ([][]runPair, error) {
	var specs []RunSpec
	for _, cell := range cells {
		for _, mix := range cell.mixes {
			spec := RunSpec{Mix: mix, CacheCfg: cell.cfg, Scale: cell.sc, PF: Baseline()}
			specs = append(specs, spec)
			spec.PF = cell.pf
			specs = append(specs, spec)
		}
	}
	runs, err := runGrid(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([][]runPair, len(cells))
	for c, cell := range cells {
		out[c] = make([]runPair, len(cell.mixes))
		for m := range out[c] {
			out[c][m], runs = runPair{runs[0], runs[1]}, runs[2:]
		}
	}
	return out, nil
}

// pairMetrics returns each pair's speedup, coverage and overprediction
// in mix order.
func pairMetrics(ps []runPair) (sps, covs, overs []float64) {
	for _, p := range ps {
		sps = append(sps, p.speedup())
		covs = append(covs, p.coverage())
		overs = append(overs, p.overpred())
	}
	return sps, covs, overs
}

// speedupGrid returns each cell's per-mix speedups in mix order.
func speedupGrid(ctx context.Context, cells []speedupCell) ([][]float64, error) {
	pairs, err := pairGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(pairs))
	for c, ps := range pairs {
		out[c], _, _ = pairMetrics(ps)
	}
	return out, nil
}

// pfCells returns one cell per prefetcher over the same mixes at one
// configuration.
func pfCells(cfg cache.Config, sc Scale, mixes []trace.Mix, pfs []PF) []speedupCell {
	cells := make([]speedupCell, len(pfs))
	for j, pf := range pfs {
		cells[j] = speedupCell{cfg, sc, pf, mixes}
	}
	return cells
}

// rowGeomeans returns, for each row (a cell whose pf is unused), each
// prefetcher's geomean speedup at the row's configuration, scale and
// mixes, all from one speedup grid.
func rowGeomeans(ctx context.Context, rows []speedupCell, pfs []PF) ([][]float64, error) {
	var cells []speedupCell
	for _, r := range rows {
		cells = append(cells, pfCells(r.cfg, r.sc, r.mixes, pfs)...)
	}
	sps, err := speedupGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(rows))
	for i := range rows {
		out[i] = geomeans(sps[i*len(pfs) : (i+1)*len(pfs)])
	}
	return out, nil
}

// pfRows adds the rows of rowGeomeans to t, row i labeled labels[i].
func pfRows(ctx context.Context, t *stats.Table, labels []string, rows []speedupCell, pfs []PF) error {
	g, err := rowGeomeans(ctx, rows, pfs)
	if err != nil {
		return err
	}
	for i, label := range labels {
		t.AddRowf(label, g[i]...)
	}
	return nil
}

// pfGeomeans returns each prefetcher's geomean speedup over mixes at one
// configuration.
func pfGeomeans(ctx context.Context, cfg cache.Config, sc Scale, mixes []trace.Mix, pfs ...PF) ([]float64, error) {
	sps, err := speedupGrid(ctx, pfCells(cfg, sc, mixes, pfs))
	if err != nil {
		return nil, err
	}
	return geomeans(sps), nil
}

// geomeans returns the geomean of each cell's speedups.
func geomeans(sps [][]float64) []float64 {
	out := make([]float64, len(sps))
	for i, sp := range sps {
		out[i] = stats.Geomean(sp)
	}
	return out
}

// groupRows splits mixes into one row per key, in order of each key's
// first appearance, and appends a GEOMEAN row over every group's mixes
// in group order (its runs are memo hits of the group rows' runs). It
// returns the rows' labels alongside.
func groupRows(cfg cache.Config, sc Scale, mixes []trace.Mix, key func(trace.Mix) string) ([]string, []speedupCell) {
	var labels []string
	var rows []speedupCell
	at := map[string]int{}
	for _, m := range mixes {
		k := key(m)
		if _, ok := at[k]; !ok {
			at[k] = len(rows)
			labels = append(labels, k)
			rows = append(rows, speedupCell{cfg: cfg, sc: sc})
		}
		rows[at[k]].mixes = append(rows[at[k]].mixes, m)
	}
	all := speedupCell{cfg: cfg, sc: sc}
	for _, r := range rows {
		all.mixes = append(all.mixes, r.mixes...)
	}
	return append(labels, "GEOMEAN"), append(rows, all)
}

// addRow2f is stats.Table.AddRowf for a row led by two labels.
func addRow2f(t *stats.Table, lead, label string, vals ...float64) {
	t.AddRowf(label, vals...)
	r := len(t.Rows) - 1
	t.Rows[r] = append([]string{lead}, t.Rows[r]...)
}

// mixesFor builds the standard multi-core mix list at a scale.
func mixesFor(cores int, sc Scale) []trace.Mix {
	pool := suitePool(sc)
	mixes := make([]trace.Mix, len(pool))
	for i, w := range pool {
		mixes[i] = trace.HomogeneousMix(w, cores)
	}
	return append(mixes, trace.HeterogeneousMixes(pool, cores, sc.HeteroMixes, 42)...)
}
