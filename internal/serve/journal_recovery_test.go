package serve_test

// Journal-recovery properties: recovery is idempotent (restarting twice
// from the same journal snapshot converges to the same jobs and never
// re-simulates persisted work), stale claims are taken over while
// live ones are respected, and user-visible job state round-trips the
// restart.

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

// copyDir clones the journal directory, claims included — a filesystem
// snapshot of the moment of the crash, replayable as many times as the
// test likes.
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

	// Second life, over the original journal: both ghosts recover; the
	// fig14 ghost is a pure store hit (zero simulations), and table2 is
	// simulation-free by construction — so the total must be zero.
	idsB, simsB := recoverAndDrain(t, journalDir, results.Open(storeDir))
	if len(idsB) != 2 {
		t.Fatalf("second life recovered %v, want the 2 ghost jobs", idsB)
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

	// Recovery reclaims terminal records: the journals now describe only
	// jobs that finished during the lives above, as terminal states.
	for _, dir := range []string{journalDir, snapshot} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				continue // claims/: released by now, and not job records
			}
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
	}
}

// TestJournalLeaseTakeover: a journaled running job whose claim belongs
// to an owner with a fresh heartbeat is not stolen at startup — the
// server waits until that heartbeat goes stale, reaps the claim, then
// runs the job. (A live claim may belong to another process sharing the
// journal directory.) The foreign owner heartbeats for 1.5 s, then stops.
func TestJournalLeaseTakeover(t *testing.T) {
	harness.ResetCaches()
	defer harness.ResetCaches()
	journalDir := t.TempDir()
	const owner = "pid1-00000000000000aa"
	alive := 1500 * time.Millisecond
	staleAfter := 500 * time.Millisecond

	now := time.Now().UTC()
	rec := map[string]any{
		"id":         "job-7",
		"kind":       serve.KindExperiment,
		"experiment": "table2",
		"scale":      "tiny",
		"status":     serve.StatusRunning,
		"attempts":   1,
		"owner":      owner,
		"created_at": now.Format(time.RFC3339Nano),
		"updated_at": now.Format(time.RFC3339Nano),
	}
	buf, _ := json.Marshal(rec)
	if err := os.WriteFile(filepath.Join(journalDir, "job-7.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	writeDoc := func(sub, name string, doc map[string]any) {
		t.Helper()
		buf, _ := json.Marshal(doc)
		if err := os.MkdirAll(filepath.Join(journalDir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(journalDir, sub, name+".tmp")
		if err := os.WriteFile(tmp, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(journalDir, sub, name)); err != nil {
			t.Fatal(err)
		}
	}
	// The foreign owner's claim, and its heartbeat: fresh until it stops.
	writeDoc("claims", "job-7.claim", map[string]any{
		"id": "job-7", "owner": owner, "claimed_at": now.Format(time.RFC3339Nano),
	})
	beat := func() {
		writeDoc("workers", owner+".json", map[string]any{
			"owner": owner, "pid": 1, "state": "busy", "job": "job-7",
			"updated_at": time.Now().UTC().Format(time.RFC3339Nano),
		})
	}
	beat()
	stopBeat := make(chan struct{})
	beating := make(chan struct{})
	go func() {
		defer close(beating)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tick.C:
				beat()
			}
		}
	}()
	time.AfterFunc(alive, func() { close(stopBeat) })
	defer func() { <-beating }()

	start := time.Now()
	srv, err := serve.New(serve.Config{
		Store:            results.Open(t.TempDir()),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		StaleAfter:       staleAfter,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	// While the foreign owner heartbeats — well past its claim's age plus
	// the stale bound — the job is registered but parked.
	time.Sleep(alive - 300*time.Millisecond)
	var out struct {
		Job serve.JobView `json:"job"`
	}
	if code := getJSON(t, ts+"/api/v1/runs/job-7", &out); code != http.StatusOK {
		t.Fatalf("recovered job not listed: %d", code)
	}
	if out.Job.Status != serve.StatusQueued {
		t.Fatalf("job whose owner heartbeats is %q %v after startup, want queued",
			out.Job.Status, time.Since(start))
	}

	// Once the heartbeat goes stale the claim is reaped and the job runs
	// to completion.
	done := waitDone(t, ts, "job-7")
	if done.Status != serve.StatusDone {
		t.Fatalf("taken-over job ended %q (%s)", done.Status, done.Error)
	}
	if !done.Recovered {
		t.Error("taken-over job not marked recovered")
	}
	if took := time.Since(start); took < alive+staleAfter-300*time.Millisecond {
		t.Errorf("job finished %v after startup, before the foreign owner's heartbeat (live %v) went stale (%v)",
			took, alive, staleAfter)
	}
	// nextID resumed past the recovered ID: no collision with new jobs.
	fresh, code := postRun(t, ts, "table4", "tiny")
	if code != http.StatusAccepted {
		t.Fatalf("POST after takeover = %d", code)
	}
	if serveJobIDLE(fresh.ID, "job-7") {
		t.Errorf("fresh job ID %q collides with recovered job-7", fresh.ID)
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
// release's journal reclaims the terminal record, runs both open jobs to
// done with their results stored, and leaves no claim behind.
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

	if _, err := os.Stat(filepath.Join(journalDir, "job-1.json")); !os.IsNotExist(err) {
		t.Errorf("terminal record job-1 not reclaimed at startup (stat: %v)", err)
	}
	if code := getJSON(t, ts+"/api/v1/runs/job-1", &struct{}{}); code != http.StatusNotFound {
		t.Errorf("reclaimed job-1 still listed: %d", code)
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
