package serve

// Unit tests for the claim protocol: O_CREATE|O_EXCL mutual exclusion,
// heartbeat liveness and reaping (with the recycled-PID defense), and
// worker heartbeat documents.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func testJournal(t *testing.T) *journal {
	t.Helper()
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

func TestClaimMutualExclusion(t *testing.T) {
	jl := testJournal(t)
	a, b := NewOwnerID("a"), NewOwnerID("b")

	if !jl.claim("job-1", a) {
		t.Fatal("first claim refused")
	}
	if jl.claim("job-1", b) {
		t.Fatal("second claimant also won — mutual exclusion broken")
	}
	// A release by a non-owner must be a no-op.
	jl.releaseClaim("job-1", b)
	if c, ok := jl.claimState("job-1"); !ok || c.Owner != a {
		t.Fatalf("non-owner release removed the claim (state %+v, ok %v)", c, ok)
	}
	// The owner's release frees the job for the next claimant.
	jl.releaseClaim("job-1", a)
	if _, ok := jl.claimState("job-1"); ok {
		t.Fatal("owner release left the claim in place")
	}
	if !jl.claim("job-1", b) {
		t.Fatal("claim refused after release")
	}
}

// TestClaimLiveness: a claim lives while its owner's last sign of life
// is younger than the stale bound. That sign is the owner's heartbeat
// when it has one, else the claim's claimed_at, else the claim file's
// mtime; heartbeats match owners on the full owner string, so a process
// that recycled a dead worker's PID cannot keep the dead worker's claim
// alive with its own heartbeat.
func TestClaimLiveness(t *testing.T) {
	const staleAfter = time.Minute
	now := time.Now().UTC()
	old := now.Add(-time.Hour)
	dead := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xAAAA))
	imposter := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xBBBB)) // same PID, new process
	cases := []struct {
		name string
		// body is the claim document; nil leaves the claim file empty, as a
		// claimant killed between its create and its body write does.
		body   *claimRecord
		mtime  time.Time
		beats  map[string]time.Time
		reaped bool
	}{
		{"old claim, fresh heartbeat", &claimRecord{Owner: "w", ClaimedAt: old}, old, map[string]time.Time{"w": now}, false},
		{"fresh claim, stale heartbeat", &claimRecord{Owner: "w", ClaimedAt: now}, now, map[string]time.Time{"w": old}, true},
		{"no heartbeat, recent claimed_at", &claimRecord{Owner: "w", ClaimedAt: now}, old, nil, false},
		{"no heartbeat, old claimed_at", &claimRecord{Owner: "w", ClaimedAt: old}, now, nil, true},
		{"empty body, recent mtime", nil, now, nil, false},
		{"empty body, old mtime", nil, old, nil, true},
		{"imposter heartbeat on a recycled PID", &claimRecord{Owner: dead, ClaimedAt: old}, old, map[string]time.Time{imposter: now}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jl := testJournal(t)
			writeClaim(t, jl, "job-1", tc.body, tc.mtime)
			for owner, at := range tc.beats {
				doc, _ := json.Marshal(WorkerInfo{Owner: owner, UpdatedAt: at})
				if err := os.MkdirAll(jl.workersDir(), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(jl.workerPath(owner), doc, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			reaped := jl.reapStale(staleAfter)
			if got := len(reaped) == 1 && reaped[0] == "job-1"; got != tc.reaped {
				t.Fatalf("reapStale = %v, want reaped %v", reaped, tc.reaped)
			}
			_, present := jl.claimState("job-1")
			if present == tc.reaped {
				t.Fatalf("claim present %v after reapStale, want %v", present, !tc.reaped)
			}
			if tc.reaped && tc.body != nil {
				// The reaped owner learns it lost the job, and asking does
				// not resurrect the claim.
				if jl.holds("job-1", tc.body.Owner) {
					t.Error("ownership check passed on a reaped claim")
				}
				if _, ok := jl.claimState("job-1"); ok {
					t.Error("ownership check recreated the claim file")
				}
			}
		})
	}
}

// writeClaim lands a claim file by hand, dated mtime; a nil body leaves
// the file empty, as a claimant killed between its create and its body
// write does.
func writeClaim(t *testing.T, jl *journal, id string, body *claimRecord, mtime time.Time) {
	t.Helper()
	var buf []byte
	if body != nil {
		body.ID = id
		buf, _ = json.Marshal(body)
	}
	if err := os.MkdirAll(jl.claimsDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jl.claimPath(id), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(jl.claimPath(id), mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestRenewRejectsRecycledPID: owner strings sharing a PID but minted
// with different process nonces are different owners. A fresh process
// that happened to receive a dead worker's PID neither holds the dead
// worker's claim nor keeps it alive with its own heartbeat.
func TestRenewRejectsRecycledPID(t *testing.T) {
	jl := testJournal(t)
	deadWorker := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xAAAA))
	imposter := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xBBBB)) // same PID, new process
	old := time.Now().Add(-time.Hour)
	writeClaim(t, jl, "job-1", &claimRecord{Owner: deadWorker, ClaimedAt: old}, old)

	if jl.holds("job-1", imposter) {
		t.Fatal("a different process with a recycled PID holds a claim it never acquired")
	}
	if !jl.holds("job-1", deadWorker) {
		t.Fatal("the true owner does not hold its claim")
	}
	// The true owner's fresh heartbeat keeps the old claim alive ...
	jl.putWorker(WorkerInfo{Owner: deadWorker, PID: os.Getpid(), State: "busy", Job: "job-1"})
	if reaped := jl.reapStale(time.Minute); len(reaped) != 0 {
		t.Fatalf("reaped a claim whose owner heartbeats: %v", reaped)
	}
	// ... the imposter's does not.
	jl.removeWorker(deadWorker)
	jl.putWorker(WorkerInfo{Owner: imposter, PID: os.Getpid(), State: "idle"})
	if reaped := jl.reapStale(time.Minute); len(reaped) != 1 || reaped[0] != "job-1" {
		t.Fatalf("reapStale = %v, want [job-1]: the imposter's heartbeat kept the dead worker's claim", reaped)
	}
}

func TestRenewAfterReapFails(t *testing.T) {
	jl := testJournal(t)
	owner := NewOwnerID("w")
	if !jl.claim("job-1", owner) {
		t.Fatal("claim refused")
	}
	time.Sleep(5 * time.Millisecond)
	reaped := jl.reapStale(time.Millisecond)
	if len(reaped) != 1 || reaped[0] != "job-1" {
		t.Fatalf("reapStale = %v, want [job-1]", reaped)
	}
	// The old owner must learn it lost the job, not resurrect the claim.
	if jl.holds("job-1", owner) {
		t.Fatal("ownership check passed on a reaped claim")
	}
	if _, ok := jl.claimState("job-1"); ok {
		t.Fatal("ownership check recreated the claim file")
	}
}

func TestReapSparesLiveAndGracedClaims(t *testing.T) {
	jl := testJournal(t)
	owner := NewOwnerID("w")
	if !jl.claim("job-live", owner) {
		t.Fatal("claim refused")
	}
	jl.putWorker(WorkerInfo{Owner: owner, PID: os.Getpid(), State: "busy", Job: "job-live"})
	// An empty claim file models a claimant killed between the O_EXCL
	// create and the body write: no owner inside, so its liveness falls
	// back to the file's mtime.
	halfWritten := time.Now().Add(-time.Hour)
	writeClaim(t, jl, "job-halfwritten", nil, halfWritten)

	if reaped := jl.reapStale(2 * time.Hour); len(reaped) != 0 {
		t.Fatalf("reaped live/graced claims: %v", reaped)
	}
	reaped := jl.reapStale(time.Minute)
	if len(reaped) != 1 || reaped[0] != "job-halfwritten" {
		t.Fatalf("reap with lapsed grace = %v, want [job-halfwritten]", reaped)
	}
	if !jl.holds("job-live", owner) {
		t.Fatal("the live owner lost its claim")
	}
}

func TestRemoveCleansClaimAndCancelLitter(t *testing.T) {
	jl := testJournal(t)
	jl.put(jobRecord{ID: "job-1", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusQueued, CreatedAt: time.Now().UTC()})
	jl.claim("job-1", NewOwnerID("w"))

	jl.remove("job-1")
	if _, err := os.Stat(jl.path("job-1")); !os.IsNotExist(err) {
		t.Fatal("record survived remove")
	}
	if _, ok := jl.claimState("job-1"); ok {
		t.Fatal("claim survived remove")
	}
}

func TestNewOwnerIDShape(t *testing.T) {
	plain := NewOwnerID("")
	want := fmt.Sprintf("pid%d-%016x", os.Getpid(), processNonce)
	if plain != want {
		t.Fatalf("NewOwnerID(\"\") = %q, want %q", plain, want)
	}
	labeled := NewOwnerID("w1")
	if !strings.HasPrefix(labeled, want+"-") {
		t.Fatalf("labeled owner %q does not extend the process identity %q", labeled, want)
	}
	if NewOwnerID("w1") != labeled {
		t.Fatal("owner IDs are not stable within a process")
	}
}

func TestWorkerHeartbeatRoundtrip(t *testing.T) {
	jl := testJournal(t)
	owner := NewOwnerID("hb")
	jl.putWorker(WorkerInfo{Owner: owner, PID: os.Getpid(), State: "busy", Job: "job-9", Jobs: 3, Sims: 1200, StartedAt: time.Now().UTC()})

	ws := jl.loadWorkers()
	if len(ws) != 1 {
		t.Fatalf("loadWorkers = %d entries, want 1", len(ws))
	}
	w := ws[0]
	if w.Owner != owner || w.State != "busy" || w.Job != "job-9" || w.Jobs != 3 || w.Sims != 1200 {
		t.Fatalf("heartbeat did not round-trip: %+v", w)
	}
	if w.UpdatedAt.IsZero() {
		t.Fatal("putWorker did not stamp UpdatedAt")
	}
	jl.removeWorker(owner)
	if got := jl.loadWorkers(); len(got) != 0 {
		t.Fatalf("heartbeat survived removeWorker: %+v", got)
	}
}

// TestMultiWorkerJournalContention: claimants racing for the same job
// IDs over one journal each win a disjoint set, and every ID has exactly
// one winner, whose owner the claim file names. Run under -race in the
// chaos tier.
func TestMultiWorkerJournalContention(t *testing.T) {
	jl := testJournal(t)
	const ids, claimants = 200, 8
	winners := make([][]string, ids)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range claimants {
		owner := NewOwnerID(fmt.Sprintf("w%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range ids {
				if jl.claim(fmt.Sprintf("job-%d", i), owner) {
					mu.Lock()
					winners[i] = append(winners[i], owner)
					mu.Unlock()
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, won := range winners {
		id := fmt.Sprintf("job-%d", i)
		if len(won) != 1 {
			t.Errorf("%s won by %d claimants %v, want exactly 1", id, len(won), won)
			continue
		}
		if !jl.holds(id, won[0]) {
			t.Errorf("%s: the winner %s does not hold the claim", id, won[0])
		}
	}
}
