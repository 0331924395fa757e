// pythia-load drives synthetic traffic at a live pythia-serve and
// grades the result against declared SLOs — the measurement half of the
// serving story: PRs 6–7 made the server survive load, this proves how
// it behaves under it.
//
// Arrivals are open-loop (Poisson around the schedule's instantaneous
// rate): a slow server doesn't slow the generator, it sheds. Schedules:
//
//	pythia-load -schedule constant -rps 50 -duration 30s
//	pythia-load -schedule ramp -rps 5 -rps-to 200 -ramp-over 30s -duration 45s
//	pythia-load -schedule burst -rps 10 -burst-peak 300 -burst-at 10s -burst-for 5s -duration 30s
//	pythia-load -schedule diurnal -rps 50 -amplitude 40 -period 60s -duration 2m
//	pythia-load -schedule replay -replay-file sched.json -duration 1m
//
// Traffic is a weighted mix of request classes (-mix
// "read=0.6,simulate=0.2,train=0.05,policy=0.05,meta=0.1"): hot-key
// store reads (Zipf-skewed via -zipf), store-miss/hit experiment
// launches, policy training, and metadata reads. -prepare seeds the hot
// keys first so a hit storm measures the store, not a 404 storm.
//
// -slo declares per-class bounds ("read:p95ms=50,err=0;simulate:shed=0.2");
// any violation renders in the report and exits nonzero, so a load run
// is CI-gateable. -json writes the load.Report as JSON.
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
		schedule = flag.String("schedule", "constant", "arrival schedule: constant, ramp, burst, diurnal, replay")
		rps      = flag.Float64("rps", 25, "base arrival rate (constant rate; ramp start; burst/diurnal base)")
		rpsTo    = flag.Float64("rps-to", 0, "ramp end rate")
		rampOver = flag.Duration("ramp-over", 10*time.Second, "ramp length")

		burstPeak = flag.Float64("burst-peak", 0, "burst spike rate")
		burstAt   = flag.Duration("burst-at", 5*time.Second, "burst start offset")
		burstFor  = flag.Duration("burst-for", 5*time.Second, "burst length")

		amplitude = flag.Float64("amplitude", 0, "diurnal sine amplitude")
		period    = flag.Duration("period", time.Minute, "diurnal sine period")

		replayFile = flag.String("replay-file", "", "replay schedule JSON ([{\"at_sec\":0,\"rps\":10},...])")

		duration = flag.Duration("duration", 30*time.Second, "total run length")
		mix      = flag.String("mix", "read=0.6,simulate=0.2,train=0.05,policy=0.05,meta=0.1",
			"request-class weights (read, simulate, train, policy, meta)")
		experiments = flag.String("experiments", "fig14,table2", "comma-separated target experiments (hot keys)")
		workloads   = flag.String("workloads", "mix1", "comma-separated training workloads for the train class")
		scale       = flag.String("scale", "quick", "scale every request targets")
		zipfS       = flag.Float64("zipf", 1.2, "hot-key Zipf skew exponent (>1; higher = hotter head)")
		seed        = flag.Int64("seed", 1, "RNG seed (arrivals + per-request choices)")
		maxInflight = flag.Int("max-inflight", 512, "bound on concurrent outstanding requests")

		prepare   = flag.Bool("prepare", true, "seed target experiments (launch + wait) before measuring")
		waitReady = flag.Duration("wait-ready", 0, "poll /healthz up to this long for the server to come up")

		sloSpec       = flag.String("slo", "", "per-class SLOs, e.g. \"read:p95ms=50,err=0;simulate:shed=0.2\"")
		minStoreHits  = flag.Int64("min-store-hits", 0, "fail unless the run produced at least this many store hits")
		jsonOut       = flag.String("json", "", "write the load.Report as JSON to this file")
		requestExpiry = flag.Duration("request-timeout", 30*time.Second, "per-request timeout")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sched, err := buildSchedule(*schedule, *rps, *rpsTo, *rampOver,
		*burstPeak, *burstAt, *burstFor, *amplitude, *period, *replayFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia-load:", err)
		return 2
	}

	targets := load.Targets{
		Experiments: splitList(*experiments),
		Workloads:   splitList(*workloads),
		Scale:       *scale,
	}
	if len(targets.Experiments) == 0 {
		fmt.Fprintln(os.Stderr, "pythia-load: -experiments is empty")
		return 2
	}

	var slos map[string]load.SLO
	if *sloSpec != "" {
		if slos, err = load.ParseSLOs(*sloSpec); err != nil {
			fmt.Fprintln(os.Stderr, "pythia-load:", err)
			return 2
		}
	}

	// Seeding retries politely; measurement never retries — the report
	// must show sheds, not hide them behind client backoff.
	prepClient := api.NewClient(*addr)
	loadClient := api.NewClient(*addr, api.WithRetries(0))

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

	mixClasses, err := load.BuildMix(loadClient, *mix, targets, *zipfS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia-load:", err)
		return 2
	}

	fmt.Fprintf(os.Stderr, "driving %s for %s against %s...\n", sched.Name(), *duration, *addr)
	rep, err := load.Run(ctx, load.Config{
		Client:         loadClient,
		Schedule:       sched,
		Duration:       *duration,
		Mix:            mixClasses,
		Seed:           *seed,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *requestExpiry,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia-load:", err)
		return 2
	}
	rep.PrepareSims = prepSims

	violated := false
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

	fmt.Print(rep.Render())

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
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

func buildSchedule(kind string, rps, rpsTo float64, rampOver time.Duration,
	burstPeak float64, burstAt, burstFor time.Duration,
	amplitude float64, period time.Duration, replayFile string) (load.Schedule, error) {
	switch kind {
	case "constant":
		return load.Constant{RPS: rps}, nil
	case "ramp":
		if rpsTo <= 0 {
			return nil, fmt.Errorf("ramp schedule needs -rps-to")
		}
		return load.Ramp{From: rps, To: rpsTo, Over: rampOver}, nil
	case "burst":
		if burstPeak <= 0 {
			return nil, fmt.Errorf("burst schedule needs -burst-peak")
		}
		return load.Burst{Base: rps, Peak: burstPeak, At: burstAt, For: burstFor}, nil
	case "diurnal":
		if amplitude <= 0 {
			return nil, fmt.Errorf("diurnal schedule needs -amplitude")
		}
		return load.Diurnal{Base: rps, Amplitude: amplitude, Period: period}, nil
	case "replay":
		if replayFile == "" {
			return nil, fmt.Errorf("replay schedule needs -replay-file")
		}
		return load.ReadReplay(replayFile)
	default:
		return nil, fmt.Errorf("unknown schedule %q (want constant, ramp, burst, diurnal, replay)", kind)
	}
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
