package harness

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// Fig8aCores reproduces Fig. 8(a): geomean speedup while scaling the core
// count (channel counts scale with cores per Table 5).
func Fig8aCores(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := StandardPFs()
	t := &stats.Table{
		Title:  "Fig. 8a: speedup vs core count",
		Header: append([]string{"cores"}, pfNames(pfs)...),
	}
	coreCounts := []int{1, 2, 4, 8}
	rows := make([]speedupCell, len(coreCounts))
	for i, cores := range coreCounts {
		rows[i] = speedupCell{cfg: cache.DefaultConfig(cores), sc: sc, mixes: mixesFor(cores, sc)}
	}
	if err := pfRows(ctx, t, itoas(coreCounts), rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: Pythia's margin over prior prefetchers grows with core count")
	return t, nil
}

// BandwidthPoints is the Fig. 8(b) MTPS sweep.
var BandwidthPoints = []int{150, 300, 600, 1200, 2400, 4800, 9600}

// mtpsConfig returns the single-core system at a DRAM bandwidth.
func mtpsConfig(mtps int) cache.Config {
	cfg := cache.DefaultConfig(1)
	cfg.DRAM = cfg.DRAM.WithMTPS(mtps)
	return cfg
}

// mtpsRows returns one single-core row over mixes per DRAM bandwidth
// point.
func mtpsRows(sc Scale, points []int, mixes []trace.Mix) []speedupCell {
	rows := make([]speedupCell, len(points))
	for i, mtps := range points {
		rows[i] = speedupCell{cfg: mtpsConfig(mtps), sc: sc, mixes: mixes}
	}
	return rows
}

// Fig8bBandwidth reproduces Fig. 8(b): single-core speedup while scaling
// DRAM bandwidth from 150 to 9600 MTPS.
func Fig8bBandwidth(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := []PF{SPPPF(), BingoPF(), MLOPPF(), PPFPF(), BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Fig. 8b: speedup vs DRAM bandwidth (MTPS, single-core)",
		Header: append([]string{"MTPS"}, pfNames(pfs)...),
	}
	if err := pfRows(ctx, t, itoas(BandwidthPoints), mtpsRows(sc, BandwidthPoints, suiteMixes(sc)), pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: at 150 MTPS Pythia outperforms MLOP/Bingo by 16.9%/20.2%; MLOP underperforms the baseline by 16%")
	return t, nil
}

// Fig8cLLCSize reproduces Fig. 8(c): single-core speedup while scaling the
// LLC from 256KB to 4MB.
func Fig8cLLCSize(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := []PF{SPPPF(), BingoPF(), MLOPPF(), BasicPythiaPF()}
	t := &stats.Table{
		Title:  "Fig. 8c: speedup vs LLC size (single-core)",
		Header: append([]string{"LLC KB"}, pfNames(pfs)...),
	}
	sizes := []int{256, 512, 1024, 2048, 4096}
	mixes := suiteMixes(sc)
	rows := make([]speedupCell, len(sizes))
	for i, kb := range sizes {
		cfg := cache.DefaultConfig(1)
		cfg.LLCSizeKBPerCore = kb
		rows[i] = speedupCell{cfg: cfg, sc: sc, mixes: mixes}
	}
	if err := pfRows(ctx, t, itoas(sizes), rows, pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: Pythia outperforms all competitors at every LLC size")
	return t, nil
}

// Fig8dMultiLevel reproduces Fig. 8(d): multi-level prefetching schemes
// (stride@L1+streamer@L2, IPCP, stride@L1+Pythia@L2) under the MTPS sweep.
func Fig8dMultiLevel(ctx context.Context, sc Scale) (*stats.Table, error) {
	pfs := []PF{StrideStreamerPF(), IPCPPF(), StridePythiaPF()}
	t := &stats.Table{
		Title:  "Fig. 8d: multi-level prefetching vs DRAM bandwidth (single-core)",
		Header: append([]string{"MTPS"}, pfNames(pfs)...),
	}
	points := []int{150, 600, 2400, 9600}
	if err := pfRows(ctx, t, itoas(points), mtpsRows(sc, points, suiteMixes(sc)), pfs); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: Stride+Pythia outperforms Stride+Streamer and IPCP at every bandwidth point")
	return t, nil
}

// itoas formats each sweep point as a row label.
func itoas(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}
