package serve_test

// Journal-recovery properties: recovery is idempotent (restarting twice
// from the same journal snapshot converges to the same jobs and never
// re-simulates persisted work), a journal a live server holds is not
// shared, and user-visible job state, terminal states included,
// round-trips the restart.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// ghostQueue journals an admission on srv's journal without ever
// registering it or handing it to a worker, by crashing the handler
// (injected panic) inside the admission window. This is the adversarial
// interleaving the journal exists for.
func ghostQueue(t *testing.T, base, exp string) {
	t.Helper()
	fault.Enable(serve.FPAdmitCrash, fault.Spec{Mode: fault.ModePanic, Count: 1})
	defer fault.Disable(serve.FPAdmitCrash)
	body := strings.NewReader(fmt.Sprintf(`{"experiment": %q, "scale": "tiny"}`, exp))
	if resp, err := http.Post(base+"/api/v1/runs", "application/json", body); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// quietHTTPServer is newHTTPServer minus the panic log noise (injected
// admission crashes are recovered and logged by net/http).
func quietHTTPServer(t *testing.T, srv *serve.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	return ts
}

// copyDir clones a journal directory — a filesystem snapshot of the
// moment of the crash, replayable as many times as the test likes.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// recoverAndDrain rebuilds a server over journalDir+storeDir, waits for
// every recovered job to reach a terminal state, and returns the sorted
// recovered job IDs and the simulation count consumed.
func recoverAndDrain(t *testing.T, journalDir string, store *results.Store) ([]string, int64) {
	t.Helper()
	harness.ResetCaches() // force recovery to prove itself against disk, not memory
	before := harness.SimCount()
	srv, err := serve.New(serve.Config{
		Store:            store,
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/runs", &list)
	var ids []string
	for _, j := range list.Jobs {
		if !j.Recovered {
			t.Errorf("job %s on a freshly recovered server not marked recovered", j.ID)
		}
		ids = append(ids, j.ID)
		if done := waitDone(t, ts.URL, j.ID); done.Status != serve.StatusDone {
			t.Errorf("recovered job %s ended %q (%s)", j.ID, done.Status, done.Error)
		}
	}
	sort.Strings(ids)
	return ids, harness.SimCount() - before
}

// TestJournalRecoveryIdempotent: after a crash that strands journaled
// jobs, restarting from the journal — twice, from identical snapshots —
// recovers the same job set both times, converges to the same terminal
// state, and performs zero duplicate simulations for work whose result
// already landed in the content-addressed store.
func TestJournalRecoveryIdempotent(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	defer fault.Reset()
	journalDir := t.TempDir()
	storeDir := t.TempDir()

	// A first life: one experiment runs to completion (simulations happen,
	// result persists), then two admissions crash inside the journal→queue
	// window, then the process dies.
	srvA, err := serve.New(serve.Config{
		Store:            results.Open(storeDir),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := quietHTTPServer(t, srvA)
	job, code := postRun(t, tsA.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if done := waitDone(t, tsA.URL, job.ID); done.Status != serve.StatusDone || done.Sims == 0 {
		t.Fatalf("first-life job: status %q, %d sims", done.Status, done.Sims)
	}
	ghostQueue(t, tsA.URL, "fig14")  // same work as the persisted result
	ghostQueue(t, tsA.URL, "table2") // distinct, never-run work
	tsA.Close()
	srvA.Close()

	snapshot := copyDir(t, journalDir)

	// Second life, over the original journal: the first life's finished
	// job is re-tracked as done, and both ghosts recover; the fig14 ghost
	// is a pure store hit (zero simulations), and table2 is
	// simulation-free by construction — so the total must be zero.
	idsB, simsB := recoverAndDrain(t, journalDir, results.Open(storeDir))
	if len(idsB) != 3 || idsB[0] != job.ID {
		t.Fatalf("second life recovered %v, want %s and the 2 ghost jobs", idsB, job.ID)
	}
	if simsB != 0 {
		t.Errorf("second life re-simulated: %d sims, want 0 (store idempotency)", simsB)
	}

	// Third life, over the pristine snapshot of the same crash: identical
	// job set, identical outcome, still zero duplicate work.
	idsC, simsC := recoverAndDrain(t, snapshot, results.Open(storeDir))
	if fmt.Sprint(idsB) != fmt.Sprint(idsC) {
		t.Errorf("replayed recovery diverged: %v vs %v", idsB, idsC)
	}
	if simsC != 0 {
		t.Errorf("replayed recovery re-simulated: %d sims, want 0", simsC)
	}

	// Recovery keeps terminal records: the journals now describe all
	// three jobs, as terminal states.
	for _, dir := range []string{journalDir, snapshot} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".json") {
				continue // LOCK: the journal lock, not a job record
			}
			records++
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			}
			if err := json.Unmarshal(buf, &rec); err != nil {
				t.Errorf("corrupt journal record %s after recovery", e.Name())
				continue
			}
			if rec.Status != serve.StatusDone {
				t.Errorf("journal record %s left in state %q after drain", rec.ID, rec.Status)
			}
		}
		if records != 3 {
			t.Errorf("%s holds %d job records after recovery, want 3", dir, records)
		}
	}
}

// TestTerminalJobSurvivesRestart: a job that finished before a restart
// still answers GET /api/v1/runs/{id} with its final state afterwards —
// a done one and a canceled one — and a new job's ID does not collide
// with them. A done job keeps its artifact: an experiment's result and
// rendered table, a training job's policy, reloaded from their stores.
// Only the newest JobHistory finished jobs are kept: a restart with a
// history of one drops the older records.
func TestTerminalJobSurvivesRestart(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	cfg := serve.Config{
		Store:            results.Open(t.TempDir()),
		Policies:         policy.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       t.TempDir(),
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale, "verylong": veryLongScale},
	}
	first, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	done, code := postRun(t, ts.URL, "fig14", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	before := waitDone(t, ts.URL, done.ID)
	if before.Status != serve.StatusDone || before.Sims == 0 || before.Result == nil || before.Rendered == "" {
		t.Fatalf("first-life job ended %q with %d sims, result %v (%s)", before.Status, before.Sims, before.Result != nil, before.Error)
	}
	trained, code := postTrain(t, ts.URL, "459.GemsFDTD-100B", "pythia", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST train = %d", code)
	}
	trainedBefore := waitDone(t, ts.URL, trained.ID)
	if trainedBefore.Status != serve.StatusDone || trainedBefore.Policy == nil {
		t.Fatalf("training job ended %q with policy %v (%s)", trainedBefore.Status, trainedBefore.Policy, trainedBefore.Error)
	}
	canceled, code := postRun(t, ts.URL, "fig7", "verylong")
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitRunning(t, ts.URL, canceled.ID)
	cancelRun(t, ts.URL, canceled.ID)
	if v := waitDone(t, ts.URL, canceled.ID); v.Status != serve.StatusCanceled {
		t.Fatalf("canceled job ended %q", v.Status)
	}
	ts.Close()
	first.Close()

	second, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := newHTTPServer(t, second)
	var out struct {
		Job serve.JobView `json:"job"`
	}
	if code := getJSON(t, base+"/api/v1/runs/"+done.ID, &out); code != http.StatusOK {
		t.Fatalf("GET %s after restart = %d, want 200", done.ID, code)
	}
	if got := out.Job; got.Status != serve.StatusDone || got.Sims != before.Sims || got.Worker != before.Worker || !got.Recovered {
		t.Errorf("%s after restart: status %q, sims %d, worker %q, recovered %v; want done, %d, %q, true",
			done.ID, got.Status, got.Sims, got.Worker, got.Recovered, before.Sims, before.Worker)
	}
	for _, want := range []serve.JobView{before, trainedBefore} {
		out.Job = serve.JobView{}
		if code := getJSON(t, base+"/api/v1/runs/"+want.ID, &out); code != http.StatusOK {
			t.Fatalf("GET %s after restart = %d, want 200", want.ID, code)
		}
		type artifact struct {
			Result   any
			Rendered string
			Policy   any
		}
		got, _ := json.Marshal(artifact{out.Job.Result, out.Job.Rendered, out.Job.Policy})
		exp, _ := json.Marshal(artifact{want.Result, want.Rendered, want.Policy})
		if string(got) != string(exp) {
			t.Errorf("%s artifact after restart:\n%s\nwant\n%s", want.ID, got, exp)
		}
	}
	if code := getJSON(t, base+"/api/v1/runs/"+canceled.ID, &out); code != http.StatusOK || out.Job.Status != serve.StatusCanceled {
		t.Errorf("GET %s after restart = %d %q, want 200 canceled", canceled.ID, code, out.Job.Status)
	}
	if evs := readSSE(t, base, done.ID); lastType(evs) != serve.StatusDone {
		t.Errorf("SSE stream of %s after restart ends with %q, want done", done.ID, lastType(evs))
	}
	fresh, code := postRun(t, base, "table2", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after restart = %d", code)
	}
	if serveJobIDLE(fresh.ID, canceled.ID) {
		t.Errorf("fresh job ID %q collides with %s", fresh.ID, canceled.ID)
	}
	waitDone(t, base, fresh.ID)
	second.Close()

	cfg.JobHistory = 1
	third, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base = newHTTPServer(t, third)
	for id, want := range map[string]int{done.ID: http.StatusNotFound, canceled.ID: http.StatusNotFound,
		trained.ID: http.StatusNotFound, fresh.ID: http.StatusOK} {
		if code := getJSON(t, base+"/api/v1/runs/"+id, &out); code != want {
			t.Errorf("GET %s with a history of one = %d, want %d", id, code, want)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.JournalDir, done.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("record of %s beyond the history kept (stat: %v)", done.ID, err)
	}
}

// TestJournalLeaseTakeover: the journal lock is the lease. While a live
// Server holds a journal, a second New over it fails with an error
// naming the journal instead of sharing it; once the first server
// closes, the same call succeeds and recovers the first server's open
// jobs: its running job and the two queued behind it.
func TestJournalLeaseTakeover(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := t.TempDir()
	cfg := serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale, "verylong": veryLongScale},
	}
	first, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	blocker, code := postRun(t, ts.URL, "fig7", "verylong")
	if code != http.StatusAccepted {
		t.Fatalf("POST blocker = %d", code)
	}
	waitRunning(t, ts.URL, blocker.ID)
	var queued []string
	for _, exp := range []string{"table2", "table4"} {
		j, code := postRun(t, ts.URL, exp, "tiny")
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d", exp, code)
		}
		queued = append(queued, j.ID)
	}

	if second, err := serve.New(cfg); err == nil {
		second.Close()
		t.Fatal("a second server started over a journal a live server holds")
	} else if !strings.Contains(err.Error(), journalDir) {
		t.Errorf("second server's error %q does not name the journal %s", err, journalDir)
	}

	ts.Close()
	first.Close()
	second, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New over the journal its holder closed: %v", err)
	}
	base := newHTTPServer(t, second)
	if n := second.Recovered(); n != 3 {
		t.Errorf("successor recovered %d jobs, want 3 (the running one and two queued)", n)
	}
	// The recovered blocker runs first again; cancel it so the queued
	// jobs get the worker.
	if _, code := cancelRun(t, base, blocker.ID); code != http.StatusOK {
		t.Fatalf("DELETE recovered blocker = %d", code)
	}
	for _, id := range queued {
		done := waitDone(t, base, id)
		if done.Status != serve.StatusDone {
			t.Fatalf("recovered %s ended %q (%s)", id, done.Status, done.Error)
		}
		if !done.Recovered {
			t.Errorf("%s not marked recovered", id)
		}
	}
	// nextID resumed past the recovered IDs: no collision with new jobs.
	fresh, code := postRun(t, base, "table7", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after takeover = %d", code)
	}
	if serveJobIDLE(fresh.ID, queued[len(queued)-1]) {
		t.Errorf("fresh job ID %q collides with the recovered jobs %v", fresh.ID, queued)
	}
}

// serveJobIDLE reports a <= b for job-N IDs.
func serveJobIDLE(a, b string) bool {
	num := func(id string) int {
		var n int
		fmt.Sscanf(id, "job-%d", &n)
		return n
	}
	return num(a) <= num(b)
}

// TestJournalAbandonsCrashLoopers: a journaled job that already burned
// through the attempt budget is not requeued — it surfaces as a
// permanently failed job instead of crash-looping the server forever.
func TestJournalAbandonsCrashLoopers(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := t.TempDir()
	rec := map[string]any{
		"id":         "job-3",
		"kind":       serve.KindExperiment,
		"experiment": "fig14",
		"scale":      "tiny",
		"status":     serve.StatusRunning,
		"attempts":   3,
		"created_at": time.Now().UTC().Format(time.RFC3339Nano),
	}
	buf, _ := json.Marshal(rec)
	if err := os.WriteFile(filepath.Join(journalDir, "job-3.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		MaxAttempts:      3,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	done := waitDone(t, ts, "job-3")
	if done.Status != serve.StatusError {
		t.Fatalf("crash-looping job recovered as %q, want error", done.Status)
	}
	if !strings.Contains(done.Error, "crash loop") {
		t.Errorf("abandonment reason not surfaced: %q", done.Error)
	}
	// Zero simulations were spent on it.
	if done.Sims != 0 {
		t.Errorf("abandoned job still ran %d sims", done.Sims)
	}
}

// TestJournalUnresolvableSpecFailsVisibly: a journal record whose spec
// no longer resolves (a custom scale not re-registered after restart)
// becomes a visible failed job, not a silent drop or a crash.
func TestJournalUnresolvableSpecFailsVisibly(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := t.TempDir()
	rec := map[string]any{
		"id":         "job-2",
		"kind":       serve.KindExperiment,
		"experiment": "fig14",
		"scale":      "bespoke", // was an ExtraScale in the previous life
		"status":     serve.StatusQueued,
		"attempts":   0,
		"created_at": time.Now().UTC().Format(time.RFC3339Nano),
	}
	buf, _ := json.Marshal(rec)
	if err := os.WriteFile(filepath.Join(journalDir, "job-2.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale}, // no "bespoke"
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	done := waitDone(t, ts, "job-2")
	if done.Status != serve.StatusError {
		t.Fatalf("unresolvable job recovered as %q, want error", done.Status)
	}
	if done.Error == "" {
		t.Error("unresolvable job carries no error message")
	}
}

// compatJournal is a journal directory written by the release before
// claims lost their lease field: a done record, a running record whose
// claim carries a lapsed lease_until and names an owner with no
// heartbeat, and a queued record.
const compatJournal = "testdata/compat-journal"

// TestCompatJournalRecovers: a server started over a copy of an older
// release's journal re-tracks the terminal record as done, runs both
// open jobs to done with their results stored, and leaves no claim
// behind.
func TestCompatJournalRecovers(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := copyDir(t, compatJournal)
	store := results.Open(t.TempDir())
	srv, err := serve.New(serve.Config{
		Store:            store,
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	if _, err := os.Stat(filepath.Join(journalDir, "job-1.json")); err != nil {
		t.Errorf("terminal record job-1 removed at startup (stat: %v)", err)
	}
	var job1 struct {
		Job serve.JobView `json:"job"`
	}
	if code := getJSON(t, ts+"/api/v1/runs/job-1", &job1); code != http.StatusOK {
		t.Errorf("terminal job-1 not listed after the restart: %d", code)
	} else if job1.Job.Status != serve.StatusDone || job1.Job.Sims != 4 {
		t.Errorf("job-1 after the restart: status %q, sims %d; want done, 4", job1.Job.Status, job1.Job.Sims)
	}
	for _, id := range []string{"job-2", "job-3"} {
		done := waitDone(t, ts, id)
		if done.Status != serve.StatusDone {
			t.Fatalf("%s ended %q (%s), want done", id, done.Status, done.Error)
		}
		if !done.Recovered {
			t.Errorf("%s not marked recovered", id)
		}
		var stored harness.ExperimentPayload
		if done.Result == nil || !store.Get(harness.ExperimentKey(done.Experiment, tinyScale), &stored) {
			t.Errorf("%s finished without a stored result", id)
		}
	}
	srv.Shutdown(context.Background())
	if ents, err := os.ReadDir(filepath.Join(journalDir, "claims")); err == nil && len(ents) > 0 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("claim files left behind: %v", names)
	}
}
