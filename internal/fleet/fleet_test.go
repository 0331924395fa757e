package fleet_test

// End-to-end chaos for the fleet: a real coordinator keeps a pool of real
// worker processes (this test binary re-exec'd) alive, one of them is
// SIGKILLed or SIGSTOPped mid-simulation, and the fleet must requeue the
// orphaned job to a survivor, replace the lost worker, and corrupt
// nothing or simulate nothing twice.
// The worker body is TestFleetWorkerProcess, gated on an environment
// variable so normal `go test` runs skip it instantly.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pythia/internal/api"
	"pythia/internal/fleet"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// chaosScale is big enough that the kill reliably lands mid-simulation
// and parametric so every process resolves it without a shared table.
// Its fig7 job runs 25 simulations of about 40M instructions each,
// several seconds on a 2-vCPU linux/amd64 host, so a kill sent 500 ms
// after the worker is seen busy finds the job still running.
const chaosScale = "custom:warmup=100000,sim=40000000,tracelen=100000,wps=1,mixes=1"

// TestFleetWorkerProcess is the worker process body, not a test in its
// own right: it drains the shared journal until killed or SIGTERMed.
func TestFleetWorkerProcess(t *testing.T) {
	if os.Getenv("PYTHIA_FLEET_WORKER") != "1" {
		t.Skip("fleet worker body; run via TestFleetSIGKILLRecovery")
	}
	root := os.Getenv("PYTHIA_FLEET_ROOT")
	if root == "" {
		t.Fatal("PYTHIA_FLEET_ROOT not set")
	}
	harness.SetTraceCacheDir(filepath.Join(root, "trace"))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Production timings: the requeue bound below holds with them.
	_, err := serve.RunWorker(ctx, serve.WorkerConfig{
		Store:      results.Open(filepath.Join(root, "results")),
		JournalDir: filepath.Join(root, "journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func startChaosCluster(t *testing.T, root string) (*fleet.Local, *httptest.Server) {
	t.Helper()
	logPath := filepath.Join(root, "workers.log")
	cluster, err := fleet.StartLocal(fleet.LocalOptions{
		Store:      results.Open(filepath.Join(root, "results")),
		JournalDir: filepath.Join(root, "journal"),
		QueueDepth: 8,
		WorkerCommand: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run=^TestFleetWorkerProcess$", "-test.v")
			cmd.Env = append(os.Environ(), "PYTHIA_FLEET_WORKER=1", "PYTHIA_FLEET_ROOT="+root)
			if f, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
				cmd.Stdout, cmd.Stderr = f, f
			}
			return cmd
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cluster.Shutdown(ctx)
	})
	ts := httptest.NewServer(cluster.Handler())
	t.Cleanup(ts.Close)
	return cluster, ts
}

func postFleetRun(t *testing.T, base, experiment, scale string) string {
	t.Helper()
	body := fmt.Sprintf(`{"experiment":%q,"scale":%q}`, experiment, scale)
	resp, err := http.Post(base+"/api/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Job serve.JobView `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST run = %d", resp.StatusCode)
	}
	return out.Job.ID
}

func getFleetJob(t *testing.T, base, id string) serve.JobView {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Job serve.JobView `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Job
}

func waitFleetTerminal(t *testing.T, base, id string, deadline time.Duration) serve.JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		j := getFleetJob(t, base, id)
		switch j.Status {
		case serve.StatusDone, serve.StatusError, serve.StatusCanceled:
			return j
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never turned terminal within %v", id, deadline)
	return serve.JobView{}
}

// auditResultFiles asserts every persisted store file is whole, parseable
// JSON — the no-corruption half of the chaos contract.
func auditResultFiles(t *testing.T, dir string) {
	t.Helper()
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || strings.Contains(path, ".tmp") {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("unreadable store file %s: %v", path, err)
			return nil
		}
		var v any
		if err := json.Unmarshal(buf, &v); err != nil {
			t.Errorf("corrupt store file %s: %v", path, err)
		}
		return nil
	})
}

func TestFleetSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	root := newChaosRoot(t)
	cluster, ts := startChaosCluster(t, root)

	jobID := postFleetRun(t, ts.URL, "fig7", chaosScale)
	victim := waitBusyWorker(t, cluster, root, jobID).PID

	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL worker %d: %v", victim, err)
	}
	killed := time.Now()

	// Whatever the kill interrupted, nothing persisted may be corrupt.
	auditResultFiles(t, filepath.Join(root, "results"))

	// The coordinator must reap the dead worker's claim within its
	// StaleAfter (5s) plus two of its ticks (500ms each): the dead
	// worker's heartbeat is the only liveness signal its claim has.
	waitFleetStatus(t, cluster, root, "a requeue", func(st api.FleetStatus) bool { return st.Requeues >= 1 })
	if took, bound := time.Since(killed), 6*time.Second; took > bound {
		t.Errorf("dead worker's job requeued %v after the kill, want within %v", took.Round(time.Millisecond), bound)
	} else {
		t.Logf("dead worker's job requeued %v after the kill", took.Round(time.Millisecond))
	}

	// A survivor (or respawn) must run the job to completion.
	done := waitFleetTerminal(t, ts.URL, jobID, 4*time.Minute)
	if done.Status != serve.StatusDone {
		t.Fatalf("orphaned job ended %q (%s); worker log:\n%s", done.Status, done.Error, readLog(root))
	}
	if done.Sims == 0 {
		t.Error("recovered job reports zero simulations")
	}
	if done.Worker == "" {
		t.Error("finished job records no owner")
	}
	auditResultFiles(t, filepath.Join(root, "results"))

	st := cluster.Coord.Status()
	if st.Requeues < 1 {
		t.Errorf("coordinator reports %d requeues, want >= 1", st.Requeues)
	}
	if st.ColdStarts < 2 {
		t.Errorf("coordinator reports %d cold starts, want >= 2 (initial pool)", st.ColdStarts)
	}

	// No duplicate simulation: a repeat of the same spec must be a pure
	// store hit, executed by a worker as zero simulations. (SimCount is
	// per-process, so the proof rides the job's own sims counter.)
	repeat := postFleetRun(t, ts.URL, "fig7", chaosScale)
	redone := waitFleetTerminal(t, ts.URL, repeat, time.Minute)
	if redone.Status != serve.StatusDone {
		t.Fatalf("repeat job ended %q (%s)", redone.Status, redone.Error)
	}
	if redone.Sims != 0 {
		t.Errorf("repeat of a completed spec executed %d simulations, want 0", redone.Sims)
	}

	// The fleet status endpoint agrees with the coordinator.
	fs, err := api.NewClient(ts.URL).Fleet(context.Background())
	if err != nil {
		t.Fatalf("GET /api/v1/fleet: %v", err)
	}
	if fs.Requeues != st.Requeues || fs.Desired != 2 {
		t.Errorf("fleet endpoint %+v disagrees with coordinator %+v", fs, st)
	}
}

// TestFleetReplacesHungWorker freezes a busy worker with SIGSTOP. Its
// heartbeat goes stale, so the coordinator must kill it (SIGKILL ends
// even a stopped process), respawn its slot, and let the survivor finish
// the job the frozen worker had claimed.
func TestFleetReplacesHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	root := newChaosRoot(t)
	cluster, ts := startChaosCluster(t, root)
	waitFleetStatus(t, cluster, root, "2 ready workers", func(st api.FleetStatus) bool { return st.Ready == 2 })
	coldBefore := cluster.Coord.Status().ColdStarts

	jobID := postFleetRun(t, ts.URL, "fig7", chaosScale)
	victim := waitBusyWorker(t, cluster, root, jobID)
	if err := syscall.Kill(victim.PID, syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP worker %d: %v", victim.PID, err)
	}

	done := waitFleetTerminal(t, ts.URL, jobID, 4*time.Minute)
	if done.Status != serve.StatusDone {
		t.Fatalf("frozen worker's job ended %q (%s); worker log:\n%s", done.Status, done.Error, readLog(root))
	}
	if done.Worker == "" || done.Worker == victim.Owner {
		t.Errorf("job finished on %q, want a worker other than the frozen %q", done.Worker, victim.Owner)
	}

	st := waitFleetStatus(t, cluster, root, "2 ready workers without the frozen one", func(st api.FleetStatus) bool {
		for _, w := range st.Workers {
			if w.PID == victim.PID {
				return false
			}
		}
		return st.Ready == 2
	})
	if st.ColdStarts != coldBefore+1 {
		t.Errorf("coordinator reports %d cold starts, want %d (one respawn)", st.ColdStarts, coldBefore+1)
	}
	if st.Requeues < 1 {
		t.Errorf("coordinator reports %d requeues, want >= 1", st.Requeues)
	}

	// The frozen process itself must be gone, not merely replaced.
	deadline := time.Now().Add(time.Minute)
	for syscall.Kill(victim.PID, 0) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("frozen worker %d still alive a minute after it was replaced", victim.PID)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// newChaosRoot makes the shared directories of one test cluster.
func newChaosRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for _, d := range []string{"journal", "results", "trace"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// waitBusyWorker waits for a worker to claim jobID, then lets the
// simulation get deep enough that a signal lands mid-flight.
func waitBusyWorker(t *testing.T, cluster *fleet.Local, root, jobID string) api.FleetWorker {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range cluster.Coord.Status().Workers {
			if w.State == "busy" && w.Job == jobID {
				time.Sleep(500 * time.Millisecond)
				return w
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("no worker ever claimed %s; worker log:\n%s", jobID, readLog(root))
	return api.FleetWorker{}
}

// waitFleetStatus polls the coordinator until ok holds for its status.
func waitFleetStatus(t *testing.T, cluster *fleet.Local, root, what string, ok func(api.FleetStatus) bool) api.FleetStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := cluster.Coord.Status(); ok(st) {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %s: %+v; worker log:\n%s", what, cluster.Coord.Status(), readLog(root))
	return api.FleetStatus{}
}

func readLog(root string) string {
	buf, _ := os.ReadFile(filepath.Join(root, "workers.log"))
	return string(buf)
}
