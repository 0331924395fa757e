package load_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
	"pythia/internal/load"
	"pythia/internal/results"
	"pythia/internal/serve"
)

var tinyScale = harness.Scale{Warmup: 50_000, Sim: 200_000, TraceLen: 40_000, WorkloadsPerSuite: 1, HeteroMixes: 1}

// TestLoadAgainstLiveServe is the harness acceptance test: prepare hot
// keys on a real serve instance, run a constant-RPS mixed read/meta/
// simulate storm, and verify (a) the per-class report is coherent,
// (b) declared SLOs evaluate, and (c) the result store absorbed the
// repeat traffic — store hits climbed while the run caused zero new
// simulations (the cache-hit-storm proof).
func TestLoadAgainstLiveServe(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{
		Store:       results.Open(t.TempDir()),
		QueueDepth:  64,
		ExtraScales: map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	targets := load.Targets{Experiments: []string{"fig14", "table2"}, Scale: "tiny"}
	prepClient := api.NewClient(ts.URL) // retrying: seeding must succeed
	prepSims, err := load.Prepare(ctx, prepClient, targets)
	if err != nil {
		t.Fatal(err)
	}
	if prepSims == 0 {
		t.Fatal("prepare ran no simulations — hot keys were not seeded")
	}

	loadClient := api.NewClient(ts.URL, api.WithRetries(0))
	mix, err := load.BuildMix(loadClient, "read=0.7,meta=0.15,simulate=0.15", targets, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := load.Run(ctx, load.Config{
		Client:   loadClient,
		RPS:      80,
		Duration: 2 * time.Second,
		Mix:      mix,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.PrepareSims = prepSims

	var read, sim load.ClassReport
	for _, c := range rep.Classes {
		switch c.Class {
		case "read":
			read = c
		case "simulate":
			sim = c
		}
	}
	if read.OK == 0 {
		t.Fatalf("no successful reads: %+v\n%s", read, rep.Render())
	}
	if read.Errors > 0 {
		t.Errorf("read errors against seeded keys: %+v", read)
	}
	if read.P50Ms <= 0 || read.P95Ms < read.P50Ms || read.P99Ms < read.P95Ms {
		t.Errorf("incoherent quantiles: %+v", read)
	}
	if sim.OK == 0 {
		t.Errorf("no successful simulate launches: %+v", sim)
	}

	// The storm must be absorbed by the store: hits climbed, and the
	// repeat traffic (reads + re-launches of seeded experiments) caused
	// zero new simulation work.
	if rep.Server == nil {
		t.Fatal("no server delta recorded")
	}
	if rep.Server.StoreHits == 0 {
		t.Errorf("store hits did not climb during hit storm: %+v", rep.Server)
	}
	if rep.Server.Sims != 0 {
		t.Errorf("hit storm caused %d simulations, want 0", rep.Server.Sims)
	}

	// SLO machinery end to end: generous bounds pass, absurd ones fail.
	pass, err := load.ParseSLOs("read:p95ms=10000,err=0;simulate:err=0")
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.CheckSLOs(pass); len(v) != 0 {
		t.Errorf("generous SLOs violated: %v\n%s", v, rep.Render())
	}
	strict, _ := load.ParseSLOs("read:p99ms=0.000001")
	if v := rep.CheckSLOs(strict); len(v) == 0 {
		t.Error("absurd SLO not flagged")
	}
}

// TestJobClassMeasuresExecution drives the job class at a live server
// over a tiny custom: scale. A request whose fresh scale is already
// stored must count as an error; every job of the measured run must
// have simulated, and the client latencies must cover the jobs' own
// execution (StartedAt to FinishedAt). Latency i >= execution i for
// every job means the same holds between like quantiles of the two.
func TestJobClassMeasuresExecution(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	srv, err := serve.New(serve.Config{Store: results.Open(t.TempDir()), QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const scale = "custom:warmup=20000,sim=50000,tracelen=20000,wps=1,mixes=1"
	targets := load.Targets{Experiments: []string{"fig14"}, Scale: scale}
	loadClient := api.NewClient(ts.URL, api.WithRetries(0))
	mix, err := load.BuildMix(loadClient, "job=1", targets, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The class's first request runs at sim=50001; store that scale
	// first, and the request must fail instead of timing a store hit.
	prepClient := api.NewClient(ts.URL)
	storedScale := scale + ",sim=50001"
	if _, err := load.Prepare(ctx, prepClient, load.Targets{Experiments: []string{"fig14"}, Scale: storedScale}); err != nil {
		t.Fatal(err)
	}
	if err := mix[0].Class.Pick(rand.New(rand.NewSource(1)))(ctx); err == nil || !strings.Contains(err.Error(), "store hit") {
		t.Fatalf("job at a stored scale returned %v, want a store-hit error", err)
	}

	rep, err := load.Run(ctx, load.Config{Client: loadClient, RPS: 20, Duration: time.Second, Mix: mix, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	job := rep.Classes[0]
	if job.OK == 0 || job.OK != job.Requests {
		t.Fatalf("job class: %+v, want every request OK\n%s", job, rep.Render())
	}
	if rep.Server == nil || rep.Server.Sims == 0 {
		t.Errorf("job requests caused no simulations: %+v", rep.Server)
	}

	jobs, err := prepClient.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var execMs []float64
	for _, j := range jobs {
		if j.Scale == scale || j.Scale == storedScale {
			continue
		}
		if j.Status != api.StatusDone || j.Cached || j.Sims <= 0 {
			t.Errorf("job %s at %s: status %s, cached %t, sims %d; want done, simulated",
				j.ID, j.Scale, j.Status, j.Cached, j.Sims)
		}
		if j.StartedAt == nil || j.FinishedAt == nil {
			t.Fatalf("job %s has no execution window", j.ID)
		}
		execMs = append(execMs, float64(j.FinishedAt.Sub(*j.StartedAt))/float64(time.Millisecond))
	}
	if int64(len(execMs)) != job.OK {
		t.Fatalf("%d measured jobs on the server, %d OK requests", len(execMs), job.OK)
	}
	sort.Float64s(execMs)
	t.Logf("%d jobs: latency p50 %.2f ms, max %.2f ms; execution p50 %.2f ms, max %.2f ms",
		len(execMs), job.P50Ms, job.MaxMs, execMs[len(execMs)/2], execMs[len(execMs)-1])
	if p50 := execMs[len(execMs)/2]; job.P50Ms < p50 {
		t.Errorf("job p50 %.2f ms is below the jobs' execution p50 %.2f ms", job.P50Ms, p50)
	}
	if longest := execMs[len(execMs)-1]; job.MaxMs < longest {
		t.Errorf("job max %.2f ms is below the longest execution %.2f ms", job.MaxMs, longest)
	}
}
