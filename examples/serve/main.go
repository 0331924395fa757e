// Serving demo: run the experiment harness as an HTTP service with a
// persistent result store, launch an experiment over the v1 API, stream
// its progress, then show an identical repeat request being answered
// from the store with zero additional simulation — the path from batch
// reproduction to a result-serving system. The next act launches a
// heavier run and cancels it: the SSE stream ends with a terminal
// "canceled" event while the service stays healthy. The final act
// overloads a deliberately tiny service until it sheds a launch with a
// typed queue_full error (503 + Retry-After), and shows the polite
// client response: the api.Client's built-in jittered backoff, driven
// by the server's own hint, gets the request in as soon as capacity
// frees up.
//
// Every HTTP interaction goes through the typed api.Client — no
// hand-rolled request bodies, status switches, or SSE parsing.
//
//	go run ./examples/serve
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "pythia-serve-demo")
	check(err)
	defer os.RemoveAll(dir)

	srv, err := serve.New(serve.Config{Store: results.Open(dir)})
	check(err)
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(ln, srv.Handler())
	client := api.NewClient("http://" + ln.Addr().String())
	fmt.Printf("pythia-serve on %s (store %s)\n\n", client.Base(), dir)

	// 1. Launch Fig. 14 at quick scale and follow the SSE progress stream.
	fmt.Println("== first request: launch {experiment: fig14, scale: quick} ==")
	job, err := client.Launch(ctx, api.LaunchRequest{Experiment: "fig14", Scale: "quick"})
	check(err)
	final := follow(ctx, client, job.ID)
	fmt.Printf("\n%s\n", final.Rendered)
	fmt.Printf("first run: cached=%v, %d simulations executed\n\n", final.Cached, final.Sims)

	// 2. Simulate a fresh process: drop every in-memory cache. The store
	// on disk is all that remains.
	harness.ResetCaches()

	fmt.Println("== repeat request after cache wipe (only the store survives) ==")
	before := harness.SimCount()
	job2, err := client.Launch(ctx, api.LaunchRequest{Experiment: "fig14", Scale: "quick"})
	check(err)
	final2 := follow(ctx, client, job2.ID)
	fmt.Printf("repeat run: cached=%v, %d simulations executed (process counter delta %d)\n\n",
		final2.Cached, final2.Sims, harness.SimCount()-before)

	// 3. The stored table is also directly fetchable, no job needed.
	res, err := client.Result(ctx, "fig14", "quick")
	check(err)
	fmt.Printf("GET result fig14@quick -> %q (%d data rows)\n\n", res.Result.Title, len(res.Result.Table.Rows))

	// 4. Cancellation: launch a heavier experiment, then cancel the run.
	// The job's context aborts in-flight simulations at the next chunk
	// boundary and the SSE stream ends with a terminal "canceled" event.
	fmt.Println("== cancellation: launch fig9a at default scale, then cancel ==")
	job3, err := client.Launch(ctx, api.LaunchRequest{Experiment: "fig9a"})
	check(err)
	go func() {
		time.Sleep(300 * time.Millisecond)
		j, err := client.Cancel(ctx, job3.ID)
		check(err)
		fmt.Printf("canceled %s (status now %q)\n", j.ID, j.Status)
	}()
	final3 := follow(ctx, client, job3.ID)
	fmt.Printf("canceled run ended with status %q (error %q)\n", final3.Status, final3.Error)
	h, err := client.Health(ctx)
	check(err)
	fmt.Printf("healthz after cancellation: ok=%v, jobs=%d\n\n", h.OK, h.Jobs)

	// 5. Overload and polite retry: a service with a single queue slot
	// sheds excess launches with a typed queue_full error carrying the
	// server's Retry-After hint. A no-retry client surfaces the shed so
	// we can inspect it; the default client honors the hint (with
	// jitter, so a thundering herd spreads out) and gets in as soon as
	// capacity frees up.
	fmt.Println("== overload: queue depth 1, then retry with jittered backoff ==")
	small, err := serve.New(serve.Config{Store: results.Open(dir), QueueDepth: 1})
	check(err)
	defer small.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(ln2, small.Handler())
	base2 := "http://" + ln2.Addr().String()
	impatient := api.NewClient(base2, api.WithRetries(0))
	patient := api.NewClient(base2)

	blocker, err := impatient.Launch(ctx, api.LaunchRequest{Experiment: "fig9a"})
	check(err)
	waitRunning(ctx, impatient, blocker.ID) // occupies the worker
	filler, err := impatient.Launch(ctx, api.LaunchRequest{Experiment: "fig14", Scale: "quick"})
	check(err) // occupies the one queue slot
	fmt.Printf("worker busy with %s, queue holds %s\n", blocker.ID, filler.ID)

	// The no-retry client sees the raw shed: a typed, retryable error.
	_, err = impatient.Launch(ctx, api.LaunchRequest{Experiment: "fig1", Scale: "quick"})
	var shed *api.Error
	if errors.As(err, &shed) {
		fmt.Printf("no-retry client shed: code=%s retryable=%v retry-after=%ds (%s)\n",
			shed.Code, shed.Retryable, shed.RetryAfterSec, shed.Message)
	}

	// Free capacity shortly after the rejection so the retrying client
	// has something to succeed against.
	go func() {
		time.Sleep(700 * time.Millisecond)
		j, err := patient.Cancel(ctx, blocker.ID)
		check(err)
		fmt.Printf("  (freed capacity: canceled %s, status %q)\n", j.ID, j.Status)
	}()

	accepted, err := patient.Launch(ctx, api.LaunchRequest{Experiment: "fig1", Scale: "quick"})
	check(err)
	fmt.Printf("retrying client got %s accepted\n", accepted.ID)
	final5 := follow(ctx, patient, accepted.ID)
	fmt.Printf("retried launch %s finished with status %q, cached=%v\n", accepted.ID, final5.Status, final5.Cached)
}

// follow streams a job's SSE events through the client, printing
// progress, and returns the terminal view.
func follow(ctx context.Context, c *api.Client, id string) api.Job {
	final, err := c.Events(ctx, id, func(ev api.Event) {
		if ev.Type == "progress" {
			if p, err := ev.AsProgress(); err == nil {
				fmt.Printf("  progress: %d simulations\r", p.Sims)
			}
		}
	})
	check(err)
	fmt.Println()
	return final
}

// waitRunning polls a job until it leaves the queued state.
func waitRunning(ctx context.Context, c *api.Client, id string) {
	for {
		j, err := c.Job(ctx, id)
		check(err)
		if j.Status != api.StatusQueued {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
