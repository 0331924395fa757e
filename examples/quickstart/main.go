// Quickstart: run Pythia against the no-prefetching baseline on one
// workload and print speedup, coverage and the learned policy.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/cpu"
	"pythia/internal/trace"
)

// run simulates one single-core workload with the given prefetcher factory
// and returns IPC plus the core's memory statistics.
func run(w trace.Workload, attach func(h *cache.Hierarchy)) (float64, cache.CoreStats) {
	hier, err := cache.NewHierarchy(cache.DefaultConfig(1))
	if err != nil {
		panic(err)
	}
	if attach != nil {
		attach(hier)
	}
	t := w.Generate(400_000)
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Core:               cpu.DefaultCoreConfig(),
		WarmupInstructions: 1_000_000,
		SimInstructions:    4_000_000,
	}, hier, []trace.ChunkReader{trace.NewSliceReader(t.Records)})
	if err != nil {
		panic(err)
	}
	if err := sys.Run(context.Background()); err != nil {
		panic(err)
	}
	return sys.Cores[0].IPC(), sys.Cores[0].Stats()
}

func main() {
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		panic("workload not found")
	}
	fmt.Printf("workload: %s\n\n", w.Name)

	baseIPC, baseStats := run(w, nil)
	fmt.Printf("no prefetching: IPC %.3f, %d LLC load misses\n", baseIPC, baseStats.LLCLoadMisses)

	var agent *core.Pythia
	pfIPC, pfStats := run(w, func(h *cache.Hierarchy) {
		agent = core.MustNew(core.BasicConfig(), h)
		h.AttachPrefetcher(0, agent)
	})
	fmt.Printf("with Pythia:    IPC %.3f, %d LLC load misses\n\n", pfIPC, pfStats.LLCLoadMisses)

	fmt.Printf("speedup:  %.2fx\n", pfIPC/baseIPC)
	fmt.Printf("coverage: %.1f%%\n",
		100*float64(baseStats.LLCLoadMisses-pfStats.LLCLoadMisses)/float64(baseStats.LLCLoadMisses))
	fmt.Printf("accuracy: %.1f%% (%d issued, %d useful)\n\n",
		100*pfStats.Accuracy(), pfStats.PfIssued, pfStats.PfUseful)

	st := agent.Stats()
	fmt.Println("learned policy (action -> times selected):")
	for i, c := range st.ActionCounts {
		if c > st.Demands/20 {
			fmt.Printf("  offset %+d: %d\n", agent.Config().Actions[i], c)
		}
	}
	fmt.Printf("rewards: AT=%d AL=%d CL=%d IN=%d NP=%d\n",
		st.RewardAT, st.RewardAL, st.RewardCL,
		st.RewardINHigh+st.RewardINLow, st.RewardNPHigh+st.RewardNPLow)

	// The paper's case study (§6.5): the PC 0x436a81 page-leading loads are
	// followed by exactly one access 23 lines ahead; Pythia should have
	// learned a high Q-value for offset +23 under that context.
	featVal := core.FeaturePCDelta.Value(&core.State{PC: 0x436a81, Delta: 0})
	qv := agent.QVStore()
	fmt.Println("\nQ-values for context (PC=0x436a81, delta=0):")
	for i, off := range agent.Config().Actions {
		q := qv.VaultQ(0, featVal, i)
		fmt.Printf("  %+3d: %6.2f\n", off, q)
	}
}
