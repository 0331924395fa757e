package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/prefetch"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Fig13QValueCurves reproduces Fig. 13: the Q-value trajectories of the
// PC+Delta feature values 0x436a81+0 and 0x4377c5+0 in the GemsFDTD case
// study, for a subset of actions.
func Fig13QValueCurves(ctx context.Context, sc Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 13: Q-value curves of PC+Delta feature values (GemsFDTD)",
		Header: []string{"feature", "sample", "Q(+1)", "Q(+3)", "Q(+11)", "Q(+22)", "Q(+23)"},
	}
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Notes = append(t.Notes, "missing GemsFDTD workload")
		return t, nil
	}
	cfg := core.BasicConfig()
	cfgActions := cfg.Actions
	actIdx := func(off int) int {
		for i, a := range cfgActions {
			if a == off {
				return i
			}
		}
		return -1
	}
	for _, study := range []struct {
		pc    uint64
		label string
	}{{0x436a81, "0x436a81+0"}, {0x4377c5, "0x4377c5+0"}} {
		featVal := core.FeaturePCDelta.Value(&core.State{PC: study.pc, Delta: 0})
		// The watch is installed as the agent is built, so it sees every
		// Q-update of the run. Run, not RunCached: a stored result could
		// not fill the watch.
		var watch *core.QWatch
		pf := PF{Name: cfg.Name, L2: func(sys prefetch.System) prefetch.Prefetcher {
			py := core.MustNew(cfg, sys)
			watch = py.WatchFeature(0, featVal, 8)
			return py
		}}
		if _, err := Run(ctx, RunSpec{Mix: single(w), CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: pf}); err != nil {
			return nil, err
		}
		if watch == nil || len(watch.Series) == 0 {
			t.Notes = append(t.Notes, "no Q-updates observed for "+study.label)
			continue
		}
		step := len(watch.Series)/10 + 1
		for i := 0; i < len(watch.Series); i += step {
			row := watch.Series[i]
			cells := []string{study.label, fmt.Sprint(i * watch.Every)}
			for _, off := range []int{1, 3, 11, 22, 23} {
				if j := actIdx(off); j >= 0 {
					cells = append(cells, fmt.Sprintf("%.2f", row[j]))
				} else {
					cells = append(cells, "-")
				}
			}
			t.AddRow(cells...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: Q(+23) dominates for 0x436a81+0 and Q(+11) for 0x4377c5+0 as updates accumulate")
	return t, nil
}

// fig14PFs returns the Fig. 14 comparison set.
func fig14PFs() []PF {
	return []PF{Baseline(), SPPPF(), BingoPF(), MLOPPF(), BasicPythiaPF(), PythiaPF(core.StrictConfig())}
}

// Fig14BandwidthBuckets reproduces Fig. 14: the fraction of runtime spent
// in each DRAM bandwidth-usage quartile and the IPC improvement on
// Ligra-CC for each prefetcher.
func Fig14BandwidthBuckets(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	t := &stats.Table{
		Title:  "Fig. 14: bandwidth-usage buckets and performance on Ligra-CC",
		Header: []string{"prefetcher", "<25%", "25-50%", "50-75%", ">=75%", "speedup"},
	}
	w, ok := trace.ByName("CC-100B")
	if !ok {
		t.Notes = append(t.Notes, "missing Ligra-CC workload")
		return t, nil
	}
	// Every prefetcher's run simulates in parallel; rows are assembled in
	// presentation order afterwards.
	pfs := fig14PFs()
	runs := make([]RunResult, len(pfs))
	err := RunAll(ctx, len(pfs), func(i int) error {
		var err error
		runs[i], err = RunCached(ctx, RunSpec{Mix: single(w), CacheCfg: cfg, Scale: sc, PF: pfs[i]})
		return err
	})
	if err != nil {
		return nil, err
	}
	base := runs[0] // fig14PFs leads with the no-prefetching baseline
	for i, pf := range pfs {
		run := runs[i]
		sp := 1.0
		if pf.Name != "nopref" {
			sp = Speedup(run, base)
		}
		t.AddRow(pf.Name,
			pct(run.Buckets[0]), pct(run.Buckets[1]), pct(run.Buckets[2]), pct(run.Buckets[3]),
			fmt.Sprintf("%.3f", sp))
	}
	t.Notes = append(t.Notes,
		"paper: MLOP/Bingo push Ligra-CC into the >50% buckets and lose performance;",
		"strict Pythia uses the least bandwidth and gains the most")
	return t, nil
}

// Fig15StrictPythia reproduces Fig. 15: basic vs strict (reward-customized)
// Pythia over the Ligra suite.
func Fig15StrictPythia(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	t := &stats.Table{
		Title:  "Fig. 15: basic vs strict Pythia on Ligra",
		Header: []string{"workload", "basic", "strict", "delta"},
	}
	pfs := []PF{BasicPythiaPF(), PythiaPF(core.StrictConfig())}
	ws := trace.Representative(trace.SuiteLigra)
	sps, err := speedupGrid(ctx, pfCells(cfg, sc, singles(ws), pfs))
	if err != nil {
		return nil, err
	}
	bs, ss := sps[0], sps[1]
	for wi, w := range ws {
		b, s := bs[wi], ss[wi]
		t.AddRow(w.Base, fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", s), pct(s/b-1))
	}
	gb, gs := stats.Geomean(bs), stats.Geomean(ss)
	t.AddRow("GEOMEAN", fmt.Sprintf("%.3f", gb), fmt.Sprintf("%.3f", gs), pct(gs/gb-1))
	t.Notes = append(t.Notes,
		"paper: strict Pythia gains up to 7.8% (2.0% on average) over basic via reward registers alone")
	return t, nil
}

// fig16Candidates is the candidate feature-combination set used for the
// per-workload feature optimization (the paper sweeps all 1- and 2-feature
// combinations; we sweep a representative subset).
func fig16Candidates() []core.Config {
	b := core.BasicConfig()
	mk := func(name string, fs ...core.Feature) core.Config {
		return b.WithFeatures(name, fs...)
	}
	return []core.Config{
		b,
		mk("pythia-f1", core.FeaturePCDelta),
		mk("pythia-f2", core.FeatureLast4Deltas),
		mk("pythia-f3", core.FeaturePCDelta, core.Feature{CF: core.CFPC, DF: core.DFOffset}),
		mk("pythia-f4", core.Feature{CF: core.CFPC, DF: core.DFAddress}, core.FeatureLast4Deltas),
		mk("pythia-f5", core.Feature{CF: core.CFNone, DF: core.DFLast4Offsets}, core.FeaturePCDelta),
		mk("pythia-f6", core.Feature{CF: core.CFPCPath, DF: core.DFDelta}, core.FeatureLast4Deltas),
	}
}

// Fig16FeatureOpt reproduces Fig. 16: basic vs per-workload
// feature-optimized Pythia on SPEC06.
func Fig16FeatureOpt(ctx context.Context, sc Scale) (*stats.Table, error) {
	cfg := cache.DefaultConfig(1)
	t := &stats.Table{
		Title:  "Fig. 16: basic vs feature-optimized Pythia on SPEC06",
		Header: []string{"workload", "basic", "best", "best features"},
	}
	// Each workload's best candidate is picked from one speedup grid. The
	// first candidate is the basic configuration.
	cands := fig16Candidates()
	ws := suiteWorkloads(trace.SuiteSPEC06, sc)
	sps, err := speedupGrid(ctx, pfCells(cfg, sc, singles(ws), pythiaPFs(cands)))
	if err != nil {
		return nil, err
	}
	var bs, os []float64
	for wi, w := range ws {
		base := sps[0][wi]
		best, bestName := base, "basic"
		for ci := 1; ci < len(cands); ci++ {
			if sps[ci][wi] > best {
				best, bestName = sps[ci][wi], featureNames(cands[ci])
			}
		}
		bs = append(bs, base)
		os = append(os, best)
		t.AddRow(w.Base, fmt.Sprintf("%.3f", base), fmt.Sprintf("%.3f", best), bestName)
	}
	gb, go_ := stats.Geomean(bs), stats.Geomean(os)
	t.AddRow("GEOMEAN", fmt.Sprintf("%.3f", gb), fmt.Sprintf("%.3f", go_), pct(go_/gb-1))
	t.Notes = append(t.Notes, "paper: feature optimization adds up to 5.1% (1.5% on average) over basic")
	return t, nil
}

// pythiaPFs returns Pythia at each configuration.
func pythiaPFs(cfgs []core.Config) []PF {
	pfs := make([]PF, len(cfgs))
	for i, c := range cfgs {
		pfs[i] = PythiaPF(c)
	}
	return pfs
}

func featureNames(cfg core.Config) string {
	s := ""
	for i, f := range cfg.Features {
		if i > 0 {
			s += ", "
		}
		s += f.String()
	}
	return s
}
