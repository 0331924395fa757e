package harness

import (
	"context"
	"fmt"
	"math"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Claim is one qualitative finding of the paper, checked against this
// reproduction. Claims compare measured quantities directionally (who wins,
// what grows) rather than against the paper's absolute numbers, per the
// substitution policy in DESIGN.md. A claim is data: its cells and a
// margin over their runs. It holds when the margin is positive.
type Claim struct {
	// ID names the claim ("1c-ordering").
	ID string
	// Source cites the paper section/figure.
	Source string
	// Statement is the finding in one sentence.
	Statement string
	// Cells builds the cells the claim is measured on at a scale, as the
	// experiment tables build theirs; nil for a claim that simulates nothing.
	Cells func(sc Scale) []speedupCell
	// Margin measures the claim from its cells' pairs, in the
	// geomean-speedup units of the detail it returns alongside.
	Margin func(ps [][]runPair) (margin float64, detail string)
}

// Scorecard returns the checked claims in presentation order.
func Scorecard() []Claim {
	return []Claim{
		{
			ID: "1c-ordering", Source: "§6.2.1 / Fig. 9a",
			Statement: "Pythia outperforms SPP, Bingo and MLOP on the single-core geomean",
			Cells:     cellsOn(cache.DefaultConfig(1), suiteMixes, StandardPFs()...),
			Margin: onGeomeans(func(g []float64) (float64, string) { // SPP, Bingo, MLOP, pythia
				return g[3] - max(g[0], g[1], g[2]), fmt.Sprintf("pythia %.3f, SPP %.3f, Bingo %.3f, MLOP %.3f", g[3], g[0], g[1], g[2])
			}),
		},
		{
			ID: "gems-delta-win", Source: "Fig. 1 / §6.5",
			Statement: "On the GemsFDTD delta-chain workload, Pythia beats Bingo (delta learners win)",
			Cells:     cellsOn(cache.DefaultConfig(1), workloadMix("459.GemsFDTD-100B"), BasicPythiaPF(), BingoPF()),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[0] - g[1], fmt.Sprintf("pythia %.3f vs Bingo %.3f", g[0], g[1])
			}),
		},
		{
			ID: "sphinx-spatial-win", Source: "Fig. 1",
			Statement: "On the sphinx3 spatial-footprint workload, Bingo beats SPP",
			Cells:     cellsOn(cache.DefaultConfig(1), workloadMix("482.sphinx3-100B"), BingoPF(), SPPPF()),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[0] - g[1], fmt.Sprintf("Bingo %.3f vs SPP %.3f", g[0], g[1])
			}),
		},
		{
			ID: "low-bw-lead", Source: "§6.2.2 / Fig. 8b",
			Statement: "At 150 MTPS Pythia leads SPP, Bingo and MLOP; every prefetcher does worse than at 2400 MTPS",
			Cells: func(sc Scale) []speedupCell {
				return rowCells(mtpsRows(sc, []int{150, 2400}, suiteMixes(sc)), StandardPFs())
			},
			Margin: onGeomeans(func(g []float64) (float64, string) {
				low, high := g[:4], g[4:] // SPP, Bingo, MLOP, pythia; each gains at 2400, pythia leads at 150
				m := min(high[0]-low[0], high[1]-low[1], high[2]-low[2], high[3]-low[3],
					low[3]-low[0], low[3]-low[1], low[3]-low[2])
				return m, fmt.Sprintf("150 MTPS: pythia %.3f, SPP %.3f, Bingo %.3f, MLOP %.3f", low[3], low[0], low[1], low[2])
			}),
		},
		{
			ID: "bw-awareness", Source: "§6.3.3 / Fig. 11",
			Statement: "The bandwidth-oblivious ablation does not beat basic Pythia under constrained bandwidth",
			Cells:     cellsOn(mtpsConfig(300), suiteMixes, BasicPythiaPF(), PythiaPF(core.BandwidthObliviousConfig())),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return 1.02*g[0] - g[1], fmt.Sprintf("basic %.3f vs oblivious %.3f at 300 MTPS", g[0], g[1])
			}),
		},
		{
			ID: "strict-ligra", Source: "§6.6.1 / Fig. 15",
			Statement: "Strict reward customization does not lose on the Ligra suite",
			Cells: cellsOn(cache.DefaultConfig(1), func(sc Scale) []trace.Mix { return singles(suiteWorkloads(trace.SuiteLigra, sc)) },
				BasicPythiaPF(), PythiaPF(core.StrictConfig())),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[1] - 0.99*g[0], fmt.Sprintf("basic %.3f vs strict %.3f", g[0], g[1])
			}),
		},
		{
			ID: "cphw", Source: "§4.5 / Fig. 21",
			Statement: "Pythia beats the myopic contextual-bandit CP-HW on the single-core geomean",
			Cells:     cellsOn(cache.DefaultConfig(1), suiteMixes, BasicPythiaPF(), CPHWPF()),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[0] - g[1], fmt.Sprintf("pythia %.3f vs CP-HW %.3f", g[0], g[1])
			}),
		},
		{
			ID: "power7", Source: "Appendix B.5 / Fig. 22",
			Statement: "Pythia beats the POWER7-style adaptive prefetcher on the single-core geomean",
			Cells:     cellsOn(cache.DefaultConfig(1), suiteMixes, BasicPythiaPF(), Power7PF()),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[0] - g[1], fmt.Sprintf("pythia %.3f vs POWER7 %.3f", g[0], g[1])
			}),
		},
		{
			ID: "unseen", Source: "§6.4 / Fig. 12",
			Statement: "Pythia gains on the unseen CVP-2 traces it was never tuned on",
			Cells: cellsOn(cache.DefaultConfig(1), func(Scale) []trace.Mix { return singles(trace.Representative(trace.SuiteCVP2)) },
				BasicPythiaPF()),
			Margin: onGeomeans(func(g []float64) (float64, string) {
				return g[0] - 1, fmt.Sprintf("geomean %.3f", g[0])
			}),
		},
		{
			ID: "storage", Source: "Table 4",
			Statement: "Pythia's metadata budget is 25.5 KB (QVStore 24 KB + EQ 1.5 KB)",
			// bits is an integer, so the margin is > 0 exactly at 24 KB.
			Margin: func([][]runPair) (float64, string) {
				bits := core.NewQVStore(core.BasicConfig().Features, 128, 16, 3, 1, 1).StorageBits()
				return 1 - math.Abs(float64(bits-196608)), fmt.Sprintf("QVStore %.1f KB", float64(bits)/8/1024)
			},
		},
	}
}

// cellsOn builds one cell per prefetcher over a scale's mixes at cfg.
func cellsOn(cfg cache.Config, mixes func(Scale) []trace.Mix, pfs ...PF) func(Scale) []speedupCell {
	return func(sc Scale) []speedupCell { return pfCells(cfg, sc, mixes(sc), pfs) }
}

// workloadMix is the single-core mix of a named workload. A name
// trace.ByName does not know gives no mixes, which TestScorecardStructure
// rejects.
func workloadMix(name string) func(Scale) []trace.Mix {
	w, ok := trace.ByName(name)
	if !ok {
		return func(Scale) []trace.Mix { return nil }
	}
	return func(Scale) []trace.Mix { return []trace.Mix{single(w)} }
}

// onGeomeans is a margin over each cell's geomean speedup.
func onGeomeans(f func(g []float64) (float64, string)) func([][]runPair) (float64, string) {
	return func(ps [][]runPair) (float64, string) {
		sps := make([][]float64, len(ps))
		for c := range ps {
			sps[c], _, _ = pairMetrics(ps[c])
		}
		return f(geomeans(sps))
	}
}

// RunScorecard evaluates every claim at a scale, all claims' cells in one pairGrid.
func RunScorecard(ctx context.Context, sc Scale) (*stats.Table, error) {
	claims := Scorecard()
	var cells []speedupCell
	ends := make([]int, len(claims))
	for i, c := range claims {
		if c.Cells != nil {
			cells = append(cells, c.Cells(sc)...)
		}
		ends[i] = len(cells)
	}
	pairs, err := pairGrid(ctx, cells)
	if err != nil {
		return nil, fmt.Errorf("scorecard: %w", err)
	}
	t := &stats.Table{
		Title:  "Reproduction scorecard: the paper's qualitative claims",
		Header: []string{"claim", "source", "result", "observed"},
	}
	pass, start := 0, 0
	for i, c := range claims {
		margin, detail := c.Margin(pairs[start:ends[i]])
		start = ends[i]
		verdict := "FAIL"
		if margin > 0 {
			verdict = "PASS"
			pass++
		}
		t.AddRow(c.ID, c.Source, verdict, detail)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d claims hold at this scale", pass, len(claims)))
	return t, nil
}
