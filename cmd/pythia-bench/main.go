// Command pythia-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pythia-bench -exp all -scale default
//	pythia-bench -exp fig9a,fig8b -scale quick -csv out/
//	pythia-bench -exp all,ext -scale quick
//	pythia-bench -exp ext-generalization,ext-warmstart -policies /var/lib/pythia/policies
//	pythia-bench -exp fig1 -parallel 8 -json BENCH_2.json
//	pythia-bench -exp all -results /var/lib/pythia/results
//	pythia-bench -list
//
// -exp takes a comma-separated list of experiment IDs and/or the group
// tokens "all" (every paper figure/table) and "ext" (every extended
// study); duplicates are dropped, order is preserved.
//
// Simulations fan out over -parallel workers (default: all CPUs); worker
// count changes wall time only, never a table's contents. -json records
// per-experiment wall times plus simulation throughput (sims run,
// instructions retired, simulated instructions per second) in the
// BENCH_*.json format described in PERF.md. -results points the harness
// at a persistent result store shared with pythia-serve and earlier
// invocations, so repeated simulations are read from disk instead of
// re-run (-results-readonly consumes without writing). The repo's
// performance record is perfbench (PERF.md "Running the benchmarks").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pythia/internal/harness"
	"pythia/internal/results"
)

// benchReport is the -json payload; PERF.md documents the format.
type benchReport struct {
	Scale       string            `json:"scale"`
	Workers     int               `json:"workers"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	CPUs        int               `json:"cpus"`
	Experiments []benchExperiment `json:"experiments"`
	TotalSecs   float64           `json:"total_seconds"`
}

// benchExperiment is one experiment's line of the -json report. Seconds,
// Sims and Instructions are marginal costs: what the experiment's own
// call did after every earlier experiment of the same invocation filled
// the run memo. An experiment whose runs an earlier one already made
// reports 0 sims and near-0 seconds, so the figures depend on the -exp
// order and are not the experiment's cost on its own.
type benchExperiment struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	// Throughput accounting: simulations actually run (store hits don't
	// count), instructions those simulations retired, and the resulting
	// simulated-instructions-per-second rate. Zero sims (fully cached
	// experiment) leaves InstrPerSec at 0 rather than reporting a rate
	// for work that never happened.
	Sims         int64   `json:"sims"`
	Instructions int64   `json:"instructions"`
	InstrPerSec  float64 `json:"instr_per_sec"`
}

// humanCount renders an instruction count compactly (12.3M, 4.5G) for
// the per-experiment progress line; the JSON report keeps exact values.
func humanCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// resolveExperiments expands a comma-separated -exp value: experiment IDs
// and/or the group tokens "all" (paper) and "ext" (extended studies).
// Duplicates are dropped; order is preserved.
func resolveExperiments(spec string) ([]harness.Experiment, error) {
	var exps []harness.Experiment
	seen := map[string]bool{}
	add := func(e harness.Experiment) {
		if !seen[e.ID] {
			seen[e.ID] = true
			exps = append(exps, e)
		}
	}
	for _, tok := range strings.Split(spec, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "":
		case "all":
			for _, e := range harness.Experiments() {
				add(e)
			}
		case "ext":
			for _, e := range harness.ExtendedExperiments() {
				add(e)
			}
		default:
			e, ok := harness.ExperimentByID(tok)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (use -list; groups: all, ext)", tok)
			}
			add(e)
		}
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("-exp %q selects no experiments", spec)
	}
	return exps, nil
}

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs and/or group tokens: 'all' (paper figures/tables), 'ext' (extended studies)")
		scaleFlag = flag.String("scale", "default", "simulation scale: quick|default|full|long")
		csvDir    = flag.String("csv", "", "also write each result as CSV into this directory")
		mdPath    = flag.String("md", "", "also append all results as a markdown report to this file")
		jsonPath  = flag.String("json", "", "write per-experiment wall times as a BENCH_*.json report")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		resDir    = flag.String("results", "", "persistent result store directory: simulations are read from and written to it, surviving restarts")
		resRO     = flag.Bool("results-readonly", false, "with -results, read stored simulations but never write new ones")
		polDir    = flag.String("policies", "", "policy store directory: warm-start experiments reuse trained policies across invocations")
		list      = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("paper experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nextended studies (-exp ext runs all of them):")
		for _, e := range harness.ExtendedExperiments() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		return
	}

	harness.SetWorkers(*parallel)
	var store *results.Store
	if *resDir != "" {
		store = harness.SetResultStore(*resDir)
		store.SetReadOnly(*resRO)
	} else if *resRO {
		fmt.Fprintln(os.Stderr, "-results-readonly requires -results")
		os.Exit(2)
	}
	if *polDir != "" {
		harness.SetPolicyStore(*polDir)
	}

	sc, err := harness.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	exps, err := resolveExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	report := benchReport{
		Scale:   *scaleFlag,
		Workers: harness.Workers(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
	}
	// SIGINT/SIGTERM cancel the experiment context: in-flight simulations
	// abort at the next chunk boundary and the process exits cleanly
	// instead of being killed mid-table.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var md strings.Builder
	wall := time.Now()
	for _, e := range exps {
		simsBefore, instrBefore := harness.SimCount(), harness.InstructionsRetired()
		start := time.Now()
		table, err := e.Run(ctx, sc)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "interrupted during %s (%v)\n", e.ID, err)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		secs := time.Since(start).Seconds()
		be := benchExperiment{
			ID: e.ID, Title: e.Title, Seconds: secs,
			Sims:         harness.SimCount() - simsBefore,
			Instructions: harness.InstructionsRetired() - instrBefore,
		}
		if secs > 0 && be.Instructions > 0 {
			be.InstrPerSec = float64(be.Instructions) / secs
		}
		fmt.Println(table.Render())
		fmt.Printf("[%s completed in %v: %d sims, %s instr, %s instr/s]\n\n",
			e.ID, time.Since(start).Round(time.Millisecond),
			be.Sims, humanCount(be.Instructions), humanCount(int64(be.InstrPerSec)))
		report.Experiments = append(report.Experiments, be)
		if *mdPath != "" {
			fmt.Fprintf(&md, "## %s\n\n```\n%s```\n\n", e.Title, table.Render())
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	report.TotalSecs = time.Since(wall).Seconds()

	if store != nil {
		fmt.Printf("[result store %s: %d hits, %d misses, %d writes]\n",
			store.Dir(), store.Hits(), store.Misses(), store.Writes())
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s: %d experiments, %.1fs total, %d workers]\n",
			*jsonPath, len(report.Experiments), report.TotalSecs, report.Workers)
	}
}
