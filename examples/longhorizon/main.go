// Longhorizon: a paper-scale single-core run in bounded memory. The
// streaming trace pipeline (internal/stream) delivers an 8M-record trace
// through a ring of recycled record chunks, so a ≥50M-instruction
// simulation — the horizon the paper trains over, and 50x this library's
// previous ceiling — runs with a few MB of resident trace data instead of
// ~200 MB. At this horizon Pythia trains with the paper's actual Table 2
// hyperparameters (α=0.0065, ε=0.002); DESIGN.md "Horizon scaling"
// explains why shorter runs need inflated values.
//
//	go run ./examples/longhorizon
//	go run ./examples/longhorizon -materialize   # the old path, for the memory contrast
//	go run ./examples/longhorizon -sim 10000000  # quicker demo
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/cpu"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

func main() {
	var (
		workload    = flag.String("workload", "459.GemsFDTD-100B", "trace name")
		sim         = flag.Int64("sim", 50_000_000, "measured instructions")
		warmup      = flag.Int64("warmup", 10_000_000, "warmup instructions")
		traceLen    = flag.Int("tracelen", 8_000_000, "trace length in records")
		materialize = flag.Bool("materialize", false, "build the whole trace in memory (the pre-streaming architecture)")
	)
	flag.Parse()

	w, ok := trace.ByName(*workload)
	if !ok {
		panic("workload not found: " + *workload)
	}
	cfg := core.PaperHorizonConfig()
	fmt.Printf("workload: %s, %d records, warmup %dM + measure %dM instructions\n",
		w.Name, *traceLen, *warmup/1e6, *sim/1e6)
	fmt.Printf("agent: %s (paper Table 2 hyperparameters: alpha=%.4f epsilon=%.4f)\n\n",
		cfg.Name, cfg.Alpha, cfg.Epsilon)

	var reader trace.ChunkReader
	start := time.Now()
	if *materialize {
		fmt.Println("delivery: materialized []Record (pre-streaming architecture)")
		reader = trace.NewSliceReader(w.Generate(*traceLen).Records)
	} else {
		fmt.Println("delivery: streamed through the chunk pipeline (generator replay)")
		src := &stream.GenSource{W: w, N: *traceLen}
		r, err := src.Open()
		if err != nil {
			panic(err)
		}
		reader = r
	}

	hier, err := cache.NewHierarchy(cache.DefaultConfig(1))
	if err != nil {
		panic(err)
	}
	agent := core.MustNew(cfg, hier)
	hier.AttachPrefetcher(0, agent)

	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Core:               cpu.DefaultCoreConfig(),
		WarmupInstructions: *warmup,
		SimInstructions:    *sim,
	}, hier, []trace.ChunkReader{reader})
	if err != nil {
		panic(err)
	}
	defer sys.Close()
	// Ctrl-C aborts the long run at the next chunk boundary instead of
	// leaving a killed process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := sys.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "run aborted:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	c := sys.Cores[0]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("\nIPC: %.3f over %dM instructions (%d trace replays)\n",
		c.IPC(), c.MeasuredInstructions()/1e6, c.Replays())
	st := c.Stats()
	fmt.Printf("LLC load misses: %d, prefetches issued: %d, accuracy %.1f%%\n",
		st.LLCLoadMisses, st.PfIssued, 100*st.Accuracy())
	fmt.Printf("wall time: %v (%.1fM instr/s)\n", wall.Round(time.Millisecond),
		float64(c.MeasuredInstructions()+*warmup)/wall.Seconds()/1e6)
	fmt.Printf("peak heap: %.1f MB (trace alone would be %.1f MB materialized)\n",
		float64(ms.HeapSys)/(1<<20), float64(*traceLen)*24/(1<<20))

	ast := agent.Stats()
	fmt.Println("\nlearned policy (action -> times selected):")
	for i, cnt := range ast.ActionCounts {
		if cnt > ast.Demands/20 {
			fmt.Printf("  offset %+d: %d\n", agent.Config().Actions[i], cnt)
		}
	}
}
