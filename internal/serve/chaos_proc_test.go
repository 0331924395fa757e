package serve_test

// The process-crash half of the chaos suite: a real worker process is
// SIGKILLed mid-job — no deferred cleanup, no graceful drain — and a
// successor process over the same journal and store directories must
// requeue the orphaned job and run it to completion, with every store
// file intact throughout.
//
// The worker is this very test binary re-exec'ed with -test.run pinned
// to TestChaosChildServer and PYTHIA_CHAOS_CHILD=1 in the environment;
// without that variable the child test is an instant skip, so normal
// `go test` runs never start a server by accident.

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// chaosRoot is the directory layout shared between parent and child:
// journal/, results/, trace/ and the addr file the child publishes its
// listen address through.
func chaosAddrFile(root string) string { return filepath.Join(root, "addr") }

// TestChaosChildServer is the worker process body, not a test in its
// own right. It serves until killed.
func TestChaosChildServer(t *testing.T) {
	if os.Getenv("PYTHIA_CHAOS_CHILD") != "1" {
		t.Skip("chaos worker body; run via TestChaosWorkerSIGKILLRecovery")
	}
	root := os.Getenv("PYTHIA_CHAOS_ROOT")
	if root == "" {
		t.Fatal("PYTHIA_CHAOS_ROOT not set")
	}
	harness.SetTraceCacheDir(filepath.Join(root, "trace"))

	// Big enough that the parent reliably kills the worker mid-run, small
	// enough that the successor finishes in seconds.
	chaosScale := harness.Scale{
		Warmup: 100_000, Sim: 8_000_000, TraceLen: 100_000,
		WorkloadsPerSuite: 1, HeteroMixes: 1,
	}
	srv, err := serve.New(serve.Config{
		Store:            results.Open(filepath.Join(root, "results")),
		QueueDepth:       4,
		ProgressInterval: 25 * time.Millisecond,
		JournalDir:       filepath.Join(root, "journal"),
		ExtraScales:      map[string]harness.Scale{"chaos": chaosScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the address atomically: write-then-rename so the parent
	// never reads a half-written file.
	tmp := chaosAddrFile(root) + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, chaosAddrFile(root)); err != nil {
		t.Fatal(err)
	}
	// Serve until the parent kills the process.
	http.Serve(ln, srv.Handler())
}

// spawnChaosWorker starts a worker process over root and waits for it
// to publish its address.
func spawnChaosWorker(t *testing.T, root string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChildServer$", "-test.v")
	cmd.Env = append(os.Environ(), "PYTHIA_CHAOS_CHILD=1", "PYTHIA_CHAOS_ROOT="+root)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if buf, err := os.ReadFile(chaosAddrFile(root)); err == nil && len(buf) > 0 {
			return cmd, string(buf), &out
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker never published an address; output:\n%s", out.String())
	return nil, "", nil
}

// TestChaosWorkerSIGKILLRecovery: SIGKILL a worker mid-simulation, then
// prove (a) the store holds no corrupt or partial files, and (b) a
// successor over the same journal requeues the orphaned job at once —
// the kernel dropped the dead process's journal lock, so nothing waits
// for staleness — and runs it to completion.
func TestChaosWorkerSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	root := t.TempDir()
	for _, d := range []string{"journal", "results", "trace"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	worker1, base1, out1 := spawnChaosWorker(t, root)
	job, code := postRun(t, base1, "fig7", "chaos")
	if code != http.StatusAccepted {
		t.Fatalf("POST to worker = %d; worker output:\n%s", code, out1.String())
	}
	waitRunning(t, base1, job.ID)
	// Let the simulation get deep enough that the kill lands mid-flight.
	time.Sleep(500 * time.Millisecond)

	if err := worker1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}
	worker1.Wait()

	// Invariant: whatever the kill interrupted, no store file is corrupt
	// or partial (temp litter is fine; half-written JSON is not).
	auditStoreFiles(t, filepath.Join(root, "results"))

	// The successor must find the orphan in the journal and finish it.
	if err := os.Remove(chaosAddrFile(root)); err != nil {
		t.Fatal(err)
	}
	_, base2, out2 := spawnChaosWorker(t, root)

	var got struct {
		Job serve.JobView `json:"job"`
	}
	if code := getJSON(t, base2+"/api/v1/runs/"+job.ID, &got); code != http.StatusOK {
		t.Fatalf("successor does not list the orphaned job %s (= %d); output:\n%s",
			job.ID, code, out2.String())
	}
	if !got.Job.Recovered {
		t.Error("orphaned job not marked recovered on the successor")
	}
	listed := time.Now()
	for got.Job.Status == serve.StatusQueued && time.Since(listed) < 2*time.Second {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, base2+"/api/v1/runs/"+job.ID, &got)
	}
	if s := got.Job.Status; s != serve.StatusRunning && s != serve.StatusDone {
		t.Fatalf("orphaned job is %q %v after the successor listed it, want running or done",
			s, time.Since(listed))
	}

	done := waitSuccessorDone(t, base2, job.ID)
	if done.Status != serve.StatusDone {
		t.Fatalf("recovered job ended %q (%s); worker output:\n%s", done.Status, done.Error, out2.String())
	}
	if done.Result == nil {
		t.Error("recovered job delivered no result")
	}
	if done.Sims == 0 {
		t.Error("recovered job reports zero simulations (nothing was persisted before the kill)")
	}
	auditStoreFiles(t, filepath.Join(root, "results"))

	var h map[string]any
	if code := getJSON(t, base2+"/healthz", &h); code != http.StatusOK || h["ok"] != true {
		t.Errorf("successor unhealthy after recovery: %d %v", code, h)
	}
	jn, _ := h["journal"].(map[string]any)
	if n, _ := jn["recovered"].(float64); n < 1 {
		t.Errorf("successor healthz reports %v recovered jobs, want >= 1", jn["recovered"])
	}
}

// waitSuccessorDone is waitDone with a longer deadline: the successor
// re-runs a multi-second simulation from scratch.
func waitSuccessorDone(t *testing.T, base, id string) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for time.Now().Before(deadline) {
		var out struct {
			Job serve.JobView `json:"job"`
		}
		if code := getJSON(t, base+"/api/v1/runs/"+id, &out); code != http.StatusOK {
			t.Fatalf("GET run %s = %d", id, code)
		}
		switch out.Job.Status {
		case serve.StatusDone, serve.StatusError, serve.StatusCanceled:
			return out.Job
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("recovered job %s never finished", id)
	return serve.JobView{}
}
