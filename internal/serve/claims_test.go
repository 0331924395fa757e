package serve

// Unit tests for the multi-process claim protocol: O_CREATE|O_EXCL
// mutual exclusion, owner-verified renewal (the recycled-PID defense),
// expiry/reaping, cancel markers, and worker heartbeat documents.

import (
	"fmt"
	"os"
	"strings"
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

	if !jl.claim("job-1", a, time.Minute) {
		t.Fatal("first claim refused")
	}
	if jl.claim("job-1", b, time.Minute) {
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
	if !jl.claim("job-1", b, time.Minute) {
		t.Fatal("claim refused after release")
	}
}

// TestRenewRejectsRecycledPID is the recycled-PID regression test: two
// owner strings sharing a PID but minted with different process nonces
// must not be able to renew each other's leases. Before owner IDs
// carried the start-time nonce, a fresh process that happened to receive
// a dead worker's PID could silently extend — steal — its lease.
func TestRenewRejectsRecycledPID(t *testing.T) {
	jl := testJournal(t)
	deadWorker := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xAAAA))
	imposter := fmt.Sprintf("pid%d-%016x", os.Getpid(), uint64(0xBBBB)) // same PID, new process

	if !jl.claim("job-1", deadWorker, time.Minute) {
		t.Fatal("claim refused")
	}
	if err := jl.renewClaim("job-1", imposter, time.Minute); err == nil {
		t.Fatal("a different process with a recycled PID renewed a lease it never acquired")
	}
	if err := jl.renewClaim("job-1", deadWorker, time.Minute); err != nil {
		t.Fatalf("the true owner could not renew: %v", err)
	}
}

func TestRenewAfterReapFails(t *testing.T) {
	jl := testJournal(t)
	owner := NewOwnerID("w")
	if !jl.claim("job-1", owner, time.Millisecond) {
		t.Fatal("claim refused")
	}
	time.Sleep(5 * time.Millisecond)
	reaped := jl.reapExpiredClaims(0, "")
	if len(reaped) != 1 || reaped[0] != "job-1" {
		t.Fatalf("reapExpiredClaims = %v, want [job-1]", reaped)
	}
	// The old owner must learn it lost the job, not resurrect the claim.
	if err := jl.renewClaim("job-1", owner, time.Minute); err == nil {
		t.Fatal("renew succeeded on a reaped claim")
	}
	if _, ok := jl.claimState("job-1"); ok {
		t.Fatal("failed renew recreated the claim file")
	}
}

func TestReapSparesLiveAndGracedClaims(t *testing.T) {
	jl := testJournal(t)
	if !jl.claim("job-live", NewOwnerID("w"), time.Hour) {
		t.Fatal("claim refused")
	}
	// An empty claim file models a claimant killed between the O_EXCL
	// create and the body write: no lease inside, so expiry falls back to
	// mtime + grace.
	if err := os.MkdirAll(jl.claimsDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jl.claimPath("job-halfwritten"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if reaped := jl.reapExpiredClaims(time.Hour, ""); len(reaped) != 0 {
		t.Fatalf("reaped live/graced claims: %v", reaped)
	}
	time.Sleep(5 * time.Millisecond)
	reaped := jl.reapExpiredClaims(time.Millisecond, "")
	if len(reaped) != 1 || reaped[0] != "job-halfwritten" {
		t.Fatalf("reap with lapsed grace = %v, want [job-halfwritten]", reaped)
	}
}

func TestCancelMarkers(t *testing.T) {
	jl := testJournal(t)
	if jl.cancelRequested("job-1") {
		t.Fatal("cancel requested before any marker")
	}
	if err := jl.markCancel("job-1"); err != nil {
		t.Fatal(err)
	}
	if !jl.cancelRequested("job-1") {
		t.Fatal("marker not visible")
	}
	jl.clearCancel("job-1")
	if jl.cancelRequested("job-1") {
		t.Fatal("marker survived clearCancel")
	}
}

func TestRemoveCleansClaimAndCancelLitter(t *testing.T) {
	jl := testJournal(t)
	jl.put(jobRecord{ID: "job-1", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusQueued, CreatedAt: time.Now().UTC()})
	jl.claim("job-1", NewOwnerID("w"), time.Minute)
	jl.markCancel("job-1")

	jl.remove("job-1")
	if _, ok := jl.get("job-1"); ok {
		t.Fatal("record survived remove")
	}
	if _, ok := jl.claimState("job-1"); ok {
		t.Fatal("claim survived remove")
	}
	if jl.cancelRequested("job-1") {
		t.Fatal("cancel marker survived remove")
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
	jl.putWorker(workerState{Owner: owner, PID: os.Getpid(), State: "busy", Job: "job-9", Jobs: 3, Sims: 1200, StartedAt: time.Now().UTC()})

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

func TestFleetJournalBacklog(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	jl.put(jobRecord{ID: "job-1", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusQueued, CreatedAt: now})
	jl.put(jobRecord{ID: "job-2", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusRunning, CreatedAt: now})
	jl.put(jobRecord{ID: "job-3", Kind: KindExperiment, Experiment: "fig14", Scale: "tiny", Status: StatusDone, CreatedAt: now})
	jl.claim("job-2", NewOwnerID("w"), time.Minute)

	fj, err := OpenFleetJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	queued, inflight := fj.Backlog()
	if queued != 1 || inflight != 1 {
		t.Fatalf("Backlog = (%d queued, %d inflight), want (1, 1)", queued, inflight)
	}
}
