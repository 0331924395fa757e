// pythia-load drives synthetic traffic at a live pythia-serve and
// grades the result against declared SLOs — the measurement half of the
// serving story: how the server behaves under load.
//
// Arrivals are open-loop Poisson at one rate per step: a slow server
// doesn't slow the generator, it sheds. The steps are -rps, 2·-rps,
// 3·-rps, … up to -rps-to, each -duration long; without -rps-to the
// run is the single step -rps. The report names the knee: the last
// step, before the first that fell behind, whose OK completions reached
// 95% of its offered arrivals:
//
//	pythia-load -rps 50 -duration 30s
//	pythia-load -rps 10 -rps-to 80 -duration 10s -mix job=1 \
//	    -scale custom:warmup=20000,sim=100000,tracelen=20000,wps=1,mixes=1
//
// Traffic is a weighted mix of request classes (-mix
// "read=0.6,simulate=0.2,train=0.05,policy=0.05,meta=0.1"): hot-key
// store reads (Zipf-skewed via -zipf), experiment launches timed to the
// launch response (simulate), experiment jobs at fresh custom: scales
// timed to their terminal event (job), policy training, and metadata
// reads. -prepare seeds the hot keys first so a hit storm measures the
// store, not a 404 storm.
//
// -slo declares per-class bounds ("read:p95ms=50,err=0;simulate:shed=0.2");
// any violation in any step renders in the report and exits nonzero, so
// a load run is CI-gateable. -json writes the load.SweepReport as JSON.
//
// Exit codes: 0 pass, 1 SLO violation (or -min-store-hits unmet),
// 2 usage/setup error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pythia/internal/api"
	"pythia/internal/load"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the pythia-serve instance")
		rps      = flag.Float64("rps", 25, "arrival rate of the first step, and the step size")
		rpsTo    = flag.Float64("rps-to", 0, "highest step rate of the sweep (0: the single step -rps)")
		duration = flag.Duration("duration", 30*time.Second, "length of each step")
		mix      = flag.String("mix", "read=0.6,simulate=0.2,train=0.05,policy=0.05,meta=0.1",
			"request-class weights (read, simulate, job, train, policy, meta)")
		experiments = flag.String("experiments", "fig14,table2", "comma-separated target experiments (hot keys)")
		workloads   = flag.String("workloads", "mix1", "comma-separated training workloads for the train class")
		scale       = flag.String("scale", "quick", "scale every request targets")
		zipfS       = flag.Float64("zipf", 1.2, "hot-key Zipf skew exponent (>1; higher = hotter head)")
		seed        = flag.Int64("seed", 1, "RNG seed (arrivals + per-request choices)")
		maxInflight = flag.Int("max-inflight", 512, "bound on concurrent outstanding requests")

		prepare   = flag.Bool("prepare", true, "seed target experiments (launch + wait) before measuring")
		waitReady = flag.Duration("wait-ready", 0, "poll /healthz up to this long for the server to come up")

		sloSpec       = flag.String("slo", "", "per-class SLOs, e.g. \"read:p95ms=50,err=0;simulate:shed=0.2\"")
		minStoreHits  = flag.Int64("min-store-hits", 0, "fail unless every step produced at least this many store hits")
		jsonOut       = flag.String("json", "", "write the load.SweepReport as JSON to this file")
		requestExpiry = flag.Duration("request-timeout", 30*time.Second, "per-request timeout")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	targets := load.Targets{
		Experiments: splitList(*experiments),
		Workloads:   splitList(*workloads),
		Scale:       *scale,
	}
	if len(targets.Experiments) == 0 {
		fmt.Fprintln(os.Stderr, "pythia-load: -experiments is empty")
		return 2
	}

	// Seeding retries politely; measurement never retries — the report
	// must show sheds, not hide them behind client backoff.
	prepClient := api.NewClient(*addr)
	loadClient := api.NewClient(*addr, api.WithRetries(0))

	mixClasses, err := load.BuildMix(loadClient, *mix, targets, *zipfS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia-load:", err)
		return 2
	}

	var slos map[string]load.SLO
	if *sloSpec != "" {
		if slos, err = load.ParseSLOs(*sloSpec); err != nil {
			fmt.Fprintln(os.Stderr, "pythia-load:", err)
			return 2
		}
	}

	if *waitReady > 0 {
		if err := waitHealthy(ctx, loadClient, *waitReady); err != nil {
			fmt.Fprintln(os.Stderr, "pythia-load:", err)
			return 2
		}
	}

	var prepSims int64
	if *prepare {
		fmt.Fprintf(os.Stderr, "seeding %d hot keys at scale %s...\n", len(targets.Experiments), targets.Scale)
		if prepSims, err = load.Prepare(ctx, prepClient, targets); err != nil {
			fmt.Fprintln(os.Stderr, "pythia-load:", err)
			return 2
		}
	}

	fmt.Fprintf(os.Stderr, "driving steps of %g rps up to %g rps, %s each, against %s...\n",
		*rps, max(*rps, *rpsTo), *duration, *addr)
	sweep, err := load.Sweep(ctx, load.Config{
		Client:         loadClient,
		RPS:            *rps,
		Duration:       *duration,
		Mix:            mixClasses,
		Seed:           *seed,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *requestExpiry,
	}, *rpsTo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia-load:", err)
		return 2
	}
	sweep.Steps[0].PrepareSims = prepSims

	violated := false
	for _, rep := range sweep.Steps {
		if slos != nil && len(rep.CheckSLOs(slos)) > 0 {
			violated = true
		}
		if *minStoreHits > 0 {
			if rep.Server == nil || rep.Server.StoreHits < *minStoreHits {
				got := int64(0)
				if rep.Server != nil {
					got = rep.Server.StoreHits
				}
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"store hits %d below required minimum %d", got, *minStoreHits))
				violated = true
			}
		}
	}

	fmt.Print(sweep.Render())

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(sweep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pythia-load: write -json:", err)
			return 2
		}
	}

	if violated {
		return 1
	}
	return 0
}

func waitHealthy(ctx context.Context, c *api.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := c.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %s: %w", c.Base(), limit, err)
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
