package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Claim is one qualitative finding of the paper, checked against this
// reproduction. Claims compare measured quantities directionally (who wins,
// what grows) rather than against the paper's absolute numbers, per the
// substitution policy in DESIGN.md.
type Claim struct {
	// ID names the claim ("1c-ordering").
	ID string
	// Source cites the paper section/figure.
	Source string
	// Statement is the finding in one sentence.
	Statement string
	// Check measures the claim; it returns the observed detail and whether
	// the claim holds. A simulation failure (or canceled ctx) aborts the
	// check with an error rather than reporting a verdict.
	Check func(ctx context.Context, sc Scale) (detail string, ok bool, err error)
}

// Scorecard returns the checked claims in presentation order.
func Scorecard() []Claim {
	return []Claim{
		{
			ID: "1c-ordering", Source: "§6.2.1 / Fig. 9a",
			Statement: "Pythia outperforms SPP, Bingo and MLOP on the single-core geomean",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, suiteMixes(sc), StandardPFs()...)
				if err != nil {
					return "", false, err
				}
				spp, bingo, mlop, py := g[0], g[1], g[2], g[3]
				ok := py > spp && py > bingo && py > mlop
				return fmt.Sprintf("pythia %.3f, SPP %.3f, Bingo %.3f, MLOP %.3f", py, spp, bingo, mlop), ok, nil
			},
		},
		{
			ID: "gems-delta-win", Source: "Fig. 1 / §6.5",
			Statement: "On the GemsFDTD delta-chain workload, Pythia beats Bingo (delta learners win)",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				py, bi, err := pairOn(ctx, sc, "459.GemsFDTD-100B", BasicPythiaPF(), BingoPF())
				if err != nil {
					return "", false, err
				}
				return fmt.Sprintf("pythia %.3f vs Bingo %.3f", py, bi), py > bi, nil
			},
		},
		{
			ID: "sphinx-spatial-win", Source: "Fig. 1",
			Statement: "On the sphinx3 spatial-footprint workload, Bingo beats SPP",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				bi, sp, err := pairOn(ctx, sc, "482.sphinx3-100B", BingoPF(), SPPPF())
				if err != nil {
					return "", false, err
				}
				return fmt.Sprintf("Bingo %.3f vs SPP %.3f", bi, sp), bi > sp, nil
			},
		},
		{
			ID: "low-bw-lead", Source: "§6.2.2 / Fig. 8b",
			Statement: "At 150 MTPS Pythia leads SPP, Bingo and MLOP; every prefetcher does worse than at 2400 MTPS",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				g, err := rowGeomeans(ctx, mtpsRows(sc, []int{150, 2400}, suiteMixes(sc)), StandardPFs())
				if err != nil {
					return "", false, err
				}
				low, high := g[0], g[1] // SPP, Bingo, MLOP, pythia
				ok := true
				for j := range low {
					ok = ok && low[j] < high[j] && low[3] >= low[j]
				}
				return fmt.Sprintf("150 MTPS: pythia %.3f, SPP %.3f, Bingo %.3f, MLOP %.3f",
					low[3], low[0], low[1], low[2]), ok, nil
			},
		},
		{
			ID: "bw-awareness", Source: "§6.3.3 / Fig. 11",
			Statement: "The bandwidth-oblivious ablation does not beat basic Pythia under constrained bandwidth",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				g, err := pfGeomeans(ctx, mtpsConfig(300), sc, suiteMixes(sc),
					BasicPythiaPF(), PythiaPF(core.BandwidthObliviousConfig()))
				if err != nil {
					return "", false, err
				}
				gb, gobl := g[0], g[1]
				return fmt.Sprintf("basic %.3f vs oblivious %.3f at 300 MTPS", gb, gobl), gobl <= gb*1.02, nil
			},
		},
		{
			ID: "strict-ligra", Source: "§6.6.1 / Fig. 15",
			Statement: "Strict reward customization does not lose on the Ligra suite",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				mixes := singles(suiteWorkloads(trace.SuiteLigra, sc))
				g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, mixes, BasicPythiaPF(), PythiaPF(core.StrictConfig()))
				if err != nil {
					return "", false, err
				}
				gb, gs := g[0], g[1]
				return fmt.Sprintf("basic %.3f vs strict %.3f", gb, gs), gs >= gb*0.99, nil
			},
		},
		{
			ID: "cphw", Source: "§4.5 / Fig. 21",
			Statement: "Pythia beats the myopic contextual-bandit CP-HW on the single-core geomean",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				return rivalGeomeans(ctx, sc, CPHWPF(), "CP-HW")
			},
		},
		{
			ID: "power7", Source: "Appendix B.5 / Fig. 22",
			Statement: "Pythia beats the POWER7-style adaptive prefetcher on the single-core geomean",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				return rivalGeomeans(ctx, sc, Power7PF(), "POWER7")
			},
		},
		{
			ID: "unseen", Source: "§6.4 / Fig. 12",
			Statement: "Pythia gains on the unseen CVP-2 traces it was never tuned on",
			Check: func(ctx context.Context, sc Scale) (string, bool, error) {
				mixes := singles(trace.Representative(trace.SuiteCVP2))
				gs, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, mixes, BasicPythiaPF())
				if err != nil {
					return "", false, err
				}
				g := gs[0]
				return fmt.Sprintf("geomean %.3f", g), g > 1.0, nil
			},
		},
		{
			ID: "storage", Source: "Table 4",
			Statement: "Pythia's metadata budget is 25.5 KB (QVStore 24 KB + EQ 1.5 KB)",
			Check: func(context.Context, Scale) (string, bool, error) {
				qv := core.NewQVStore(core.BasicConfig().Features, 128, 16, 3, 1, 1)
				kb := float64(qv.StorageBits()) / 8 / 1024
				return fmt.Sprintf("QVStore %.1f KB", kb), kb == 24, nil
			},
		},
	}
}

// rivalGeomeans compares Pythia's single-core geomean to a rival's across
// every suite (the shared body of the CP-HW and POWER7 claims).
func rivalGeomeans(ctx context.Context, sc Scale, rival PF, label string) (string, bool, error) {
	g, err := pfGeomeans(ctx, cache.DefaultConfig(1), sc, suiteMixes(sc), BasicPythiaPF(), rival)
	if err != nil {
		return "", false, err
	}
	gp, gc := g[0], g[1]
	return fmt.Sprintf("pythia %.3f vs %s %.3f", gp, label, gc), gp > gc, nil
}

// pairOn returns the speedups of a and b on one single-core workload.
func pairOn(ctx context.Context, sc Scale, workload string, a, b PF) (float64, float64, error) {
	w, _ := trace.ByName(workload)
	sps, err := speedupGrid(ctx, pfCells(cache.DefaultConfig(1), sc, []trace.Mix{single(w)}, []PF{a, b}))
	if err != nil {
		return 0, 0, err
	}
	return sps[0][0], sps[1][0], nil
}

// RunScorecard evaluates every claim at a scale.
func RunScorecard(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Reproduction scorecard: the paper's qualitative claims",
		Header: []string{"claim", "source", "result", "observed"},
	}
	pass := 0
	for _, c := range Scorecard() {
		detail, ok, err := c.Check(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("scorecard claim %s: %w", c.ID, err)
		}
		verdict := "FAIL"
		if ok {
			verdict = "PASS"
			pass++
		}
		t.AddRow(c.ID, c.Source, verdict, detail)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d claims hold at this scale", pass, len(Scorecard())))
	return t, nil
}
