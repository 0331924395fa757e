// Command pythia-sim runs a single simulation: one workload (or an n-core
// homogeneous mix), one prefetcher, one system configuration, and prints
// IPC, speedup over the no-prefetching baseline, and prefetcher statistics.
//
// Usage:
//
//	pythia-sim -workload 459.GemsFDTD-100B -pf pythia
//	pythia-sim -workload CC-100B -pf pythia-strict -mtps 600 -cores 4
//	pythia-sim -workload CC-100B -pf pythia -save-policy cc.policy.json
//	pythia-sim -workload 410.bwaves-100B -pf pythia -load-policy cc.policy.json
//	pythia-sim -workloads
//
// -save-policy writes core 0's learned Q-table as a policy envelope after
// the run; -load-policy warm-starts every Pythia agent from one before
// the run (the envelope's config fingerprint and generator version must
// match, or the run fails with a typed error). Envelopes interoperate
// with pythia-train -export and the policy store behind pythia-serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "459.GemsFDTD-100B", "trace name (see -workloads)")
		traceFile = flag.String("tracefile", "", "run a trace file written by tracegen instead of a registry workload")
		pfName    = flag.String("pf", "pythia", "prefetcher name")
		cores     = flag.Int("cores", 1, "number of cores (homogeneous mix)")
		mtps      = flag.Int("mtps", 0, "override DRAM MTPS (0 = Table 5 default)")
		llcKB     = flag.Int("llc", 0, "override LLC KB per core (0 = 2048)")
		scaleName = flag.String("scale", "default", "simulation scale: quick|default|full|long")
		savePol   = flag.String("save-policy", "", "write core 0's learned policy envelope to this file after the run")
		loadPol   = flag.String("load-policy", "", "warm-start every Pythia agent from this policy envelope")
		listWL    = flag.Bool("workloads", false, "list available workloads and exit")
	)
	flag.Parse()

	if *listWL {
		for _, w := range trace.All() {
			fmt.Printf("%-12s %s\n", w.Suite, w.Name)
		}
		return
	}

	var w trace.Workload
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		t, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "decode %s: %v\n", *traceFile, err)
			os.Exit(2)
		}
		w = trace.Fixed(t)
	} else {
		var ok bool
		w, ok = trace.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -workloads)\n", *workload)
			os.Exit(2)
		}
	}
	pf, err := harness.PFByName(*pfName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc, err := harness.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := cache.DefaultConfig(*cores)
	if *mtps > 0 {
		cfg.DRAM = cfg.DRAM.WithMTPS(*mtps)
	}
	if *llcKB > 0 {
		cfg.LLCSizeKBPerCore = *llcKB
	}

	// SIGINT/SIGTERM abort in-flight simulations promptly via the context.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var warm *policy.Envelope
	if *loadPol != "" {
		env, err := policy.ReadFile(*loadPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		warm = &env
	}

	mix := trace.HomogeneousMix(w, *cores)
	base, err := harness.RunCached(ctx, harness.RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: harness.Baseline()})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The prefetched run uses Run, not RunCached: this CLI inspects live
	// prefetcher state below, and cached results are PF-stripped.
	run, err := harness.Run(ctx, harness.RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: pf, WarmStart: warm})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("workload: %s (%s), %d core(s), %d MTPS\n", w.Name, w.Suite, *cores, cfg.DRAM.MTPS)
	fmt.Printf("prefetcher: %s\n", pf.Name)
	if warm != nil {
		fmt.Printf("warm-started from %s (%s trained on %s)\n", warm.ID, warm.Config, warm.TrainedOn.Workload)
	}
	fmt.Println()
	for i := range run.IPC {
		fmt.Printf("core %d: IPC %.3f (baseline %.3f)\n", i, run.IPC[i], base.IPC[i])
	}
	fmt.Printf("\nspeedup over no-prefetching: %.3f\n", harness.Speedup(run, base))
	var issued, useful, late int64
	for _, s := range run.Stats {
		issued += s.PfIssued
		useful += s.PfUseful
		late += s.PfLate
	}
	if issued > 0 {
		fmt.Printf("prefetches: %d issued, %d useful (%.1f%%), %d late\n",
			issued, useful, 100*float64(useful)/float64(issued), late)
	}
	fmt.Printf("coverage: %.1f%%  overprediction: %.1f%%\n",
		100*stats.Coverage(base.SumLLCLoadMisses(), run.SumLLCLoadMisses()),
		100*stats.Overprediction(base.SumDRAMReads(), run.SumDRAMReads()))
	fmt.Printf("bandwidth buckets (<25/25-50/50-75/>=75): %.0f%% %.0f%% %.0f%% %.0f%%\n",
		100*run.Buckets[0], 100*run.Buckets[1], 100*run.Buckets[2], 100*run.Buckets[3])

	if *savePol != "" {
		saved := false
		for _, pref := range run.PFs {
			p, ok := pref.(*core.Pythia)
			if !ok {
				continue
			}
			// Cores and ParentID are part of the content address: a policy
			// trained under multi-core contention, or continued from a
			// loaded policy, must not address as the single-core
			// from-scratch one.
			prov := policy.Provenance{
				Workload: w.Name,
				Trace:    w.Key(sc.TraceLen),
				Scale:    sc.Key(),
				Seed:     p.Config().Seed,
				Cores:    *cores,
				Sims:     1,
			}
			if warm != nil {
				prov.ParentID = warm.ID
			}
			env, err := policy.New(p, prov)
			if err == nil {
				err = policy.WriteFile(*savePol, env)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\nsaved policy %s (%d bytes) to %s\n", env.ID, env.SnapshotBytes, *savePol)
			saved = true
			break
		}
		if !saved {
			fmt.Fprintf(os.Stderr, "-save-policy: prefetcher %s has no Pythia agent to snapshot\n", pf.Name)
			os.Exit(1)
		}
	}

	// If the prefetcher is a Pythia agent, show the learned policy summary.
	if len(run.PFs) > 0 {
		if p, ok := run.PFs[0].(*core.Pythia); ok {
			st := p.Stats()
			fmt.Printf("\nPythia core 0: %d demands, %d prefetch actions, %d no-prefetch, %d out-of-page\n",
				st.Demands, st.PrefetchTaken, st.NoPrefetch, st.OutOfPage)
			fmt.Printf("rewards: AT=%d AL=%d CL=%d IN(hi/lo)=%d/%d NP(hi/lo)=%d/%d\n",
				st.RewardAT, st.RewardAL, st.RewardCL,
				st.RewardINHigh, st.RewardINLow, st.RewardNPHigh, st.RewardNPLow)
			fmt.Printf("top actions:")
			for i, c := range st.ActionCounts {
				if c > st.Demands/20 {
					fmt.Printf(" %+d:%d", p.Config().Actions[i], c)
				}
			}
			fmt.Println()
		}
	}
}
