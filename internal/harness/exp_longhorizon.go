package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// longHorizonWorkloads is the study set: the paper's §6.5 case-study
// workload plus one streaming-friendly and one irregular trace, covering
// the pattern classes whose convergence behavior differs most with
// horizon length.
func longHorizonWorkloads() []string {
	return []string{"459.GemsFDTD-100B", "410.bwaves-100B", "CC-100B"}
}

// ExtLongHorizon runs the long-horizon training study enabled by the
// streaming trace pipeline: at ScaleLong (≥50M measured instructions per
// core, the paper's order of magnitude) Pythia trains with the paper's
// actual Table 2 hyperparameters (α=0.0065, ε=0.002) next to this
// library's horizon-scaled defaults (α=0.10, ε=0.01). At short horizons
// the paper values under-converge; given a paper-scale horizon they no
// longer need the inflation documented in DESIGN.md "Horizon scaling".
//
// The experiment honors whatever scale it is given (so it smoke-tests at
// quick scale), but its headline run is:
//
//	pythia-bench -exp ext-longhorizon -scale long
func ExtLongHorizon(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	pfs := []PF{BasicPythiaPF(), PythiaPF(core.PaperHorizonConfig())}
	t := &stats.Table{
		Title: "Long-horizon study: paper Table 2 hyperparameters vs horizon-scaled defaults",
		Header: []string{"workload", "instructions/core",
			pfs[0].Name + " speedup", pfs[1].Name + " speedup"},
	}
	var ws []trace.Workload
	for _, name := range longHorizonWorkloads() {
		w, ok := trace.ByName(name)
		if !ok {
			t.Notes = append(t.Notes, "missing workload "+name)
			continue
		}
		ws = append(ws, w)
	}
	sps, err := speedupGrid(ctx, pfCells(cfg, sc, singles(ws), pfs))
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		t.AddRow(w.Name, fmt.Sprintf("%d", sc.Sim),
			fmt.Sprintf("%.3f", sps[0][i]), fmt.Sprintf("%.3f", sps[1][i]))
	}
	t.AddRow("GEOMEAN", fmt.Sprintf("%d", sc.Sim),
		fmt.Sprintf("%.3f", stats.Geomean(sps[0])), fmt.Sprintf("%.3f", stats.Geomean(sps[1])))
	if sc.StreamChunk > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"traces streamed via internal/stream (%d-record chunks); peak resident trace memory is the chunk ring, not TraceLen", sc.StreamChunk))
	} else {
		t.Notes = append(t.Notes,
			"run at -scale long for the paper-horizon result (streaming pipeline, α=0.0065/ε=0.002 converges)")
	}
	return t, nil
}
