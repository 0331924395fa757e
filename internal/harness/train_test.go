package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/fault"
	"pythia/internal/fsutil"
	"pythia/internal/policy"
	"pythia/internal/trace"
)

func tinyTrainSpec(t *testing.T) TrainSpec {
	t.Helper()
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	return TrainSpec{Workload: w, CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, Config: core.BasicConfig()}
}

// TestTrainPolicyRepeatIsStoreHit is the lifecycle acceptance test: the
// first training request simulates and persists; an identical repeat —
// even through a fresh store handle, a process restart in miniature — is
// a policy-store hit with zero additional simulations.
func TestTrainPolicyRepeatIsStoreHit(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	dir := t.TempDir()
	ts := tinyTrainSpec(t)

	st := policy.Open(dir)
	before := SimCount()
	env, hit, err := TrainPolicyIn(bg, st, ts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first training request claims a store hit")
	}
	if delta := SimCount() - before; delta != 1 {
		t.Errorf("training executed %d simulations, want 1", delta)
	}
	if env.ID != ts.PolicyID() || len(env.Snapshot) == 0 {
		t.Fatalf("trained envelope incomplete: %+v", env.Meta)
	}
	if env.TrainedOn.Workload != ts.Workload.Name || env.TrainedOn.Seed != ts.Config.Seed {
		t.Errorf("provenance wrong: %+v", env.TrainedOn)
	}

	before = SimCount()
	again, hit, err := TrainPolicyIn(bg, policy.Open(dir), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("repeat training request was not a store hit")
	}
	if delta := SimCount() - before; delta != 0 {
		t.Errorf("repeat training executed %d simulations, want 0", delta)
	}
	if again.ID != env.ID {
		t.Errorf("repeat served a different policy: %s vs %s", again.ID, env.ID)
	}
}

// TestTrainedPolicyPinned pins the policy training produces without a
// store: its content address and the SHA-256 of its snapshot bytes, so
// a change to how training runs or reads its agent cannot change the
// learned Q-table unnoticed. With no store there is nothing to hit, so a
// repeat trains again.
func TestTrainedPolicyPinned(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	const (
		wantID  = "pol-b1aeda9e5c95ce73"
		wantSum = "babe86d1b8c2ef16a3b9222ae4ae76ae3d2d38ce34aef7647c07ca9bba02d275"
	)
	ts := tinyTrainSpec(t)
	for i := 0; i < 2; i++ {
		before := SimCount()
		env, hit, err := TrainPolicyIn(bg, nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		if delta := SimCount() - before; hit || delta != 1 {
			t.Errorf("call %d: hit=%v after %d simulations, want hit=false after 1", i+1, hit, delta)
		}
		sum := sha256.Sum256(env.Snapshot)
		if env.ID != wantID || hex.EncodeToString(sum[:]) != wantSum {
			t.Errorf("call %d: policy %s with snapshot sha256 %x, want %s with %s", i+1, env.ID, sum, wantID, wantSum)
		}
	}
}

// TestWarmStartedEvaluationNeverRetrains: with the policy in the store
// and the evaluation in the result store, a full warm-started evaluation
// cycle after a restart costs zero simulations — and the warm result is
// distinct from the cold one (the policy ID keys the cache).
func TestWarmStartedEvaluationNeverRetrains(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	resDir, polDir := t.TempDir(), t.TempDir()
	SetResultStore(resDir)
	defer SetResultStore("")
	ts := tinyTrainSpec(t)

	env, _, err := TrainPolicyIn(bg, policy.Open(polDir), ts)
	if err != nil {
		t.Fatal(err)
	}
	cold := RunSpec{Mix: single(ts.Workload), CacheCfg: ts.CacheCfg, Scale: ts.Scale, PF: PythiaPF(ts.Config)}
	warm := cold
	warm.WarmStart = &env
	coldRes, err := RunCached(bg, cold)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := RunCached(bg, warm)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.IPC[0] == warmRes.IPC[0] && coldRes.SumLLCLoadMisses() == warmRes.SumLLCLoadMisses() {
		t.Error("warm and cold runs produced identical results — cache key collision?")
	}

	// Restart: drop every in-memory cache; the whole warm cycle (policy
	// fetch + evaluation) must be served from the two stores.
	ResetCaches()
	SetResultStore(resDir)
	before := SimCount()
	env2, hit, err := TrainPolicyIn(bg, policy.Open(polDir), ts)
	if err != nil || !hit {
		t.Fatalf("policy refetch hit=%v err=%v", hit, err)
	}
	warm.WarmStart = &env2
	warmAgain, err := RunCached(bg, warm)
	if err != nil {
		t.Fatal(err)
	}
	if delta := SimCount() - before; delta != 0 {
		t.Errorf("warm-started evaluation after restart executed %d simulations, want 0", delta)
	}
	if warmAgain.IPC[0] != warmRes.IPC[0] {
		t.Error("restored warm result differs from the original")
	}
}

// TestWarmStartRejectsMismatch: a policy restored across a configuration
// or generator-version mismatch fails the run with the typed error, and a
// warm spec whose prefetcher has no Pythia agent fails loudly too.
func TestWarmStartRejectsMismatch(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	ts := tinyTrainSpec(t)
	env, _, err := TrainPolicyIn(bg, nil, ts)
	if err != nil {
		t.Fatal(err)
	}

	mismatched := RunSpec{Mix: single(ts.Workload), CacheCfg: ts.CacheCfg, Scale: ts.Scale,
		PF: PythiaPF(core.StrictConfig()), WarmStart: &env}
	if _, err := Run(bg, mismatched); !errors.Is(err, policy.ErrMismatch) {
		t.Errorf("config mismatch: want policy.ErrMismatch, got %v", err)
	}

	skewed := env
	skewed.GenVersion++
	genSkew := RunSpec{Mix: single(ts.Workload), CacheCfg: ts.CacheCfg, Scale: ts.Scale,
		PF: PythiaPF(ts.Config), WarmStart: &skewed}
	if _, err := Run(bg, genSkew); !errors.Is(err, policy.ErrMismatch) {
		t.Errorf("generator skew: want policy.ErrMismatch, got %v", err)
	}

	noAgent := RunSpec{Mix: single(ts.Workload), CacheCfg: ts.CacheCfg, Scale: ts.Scale,
		PF: SPPPF(), WarmStart: &env}
	if _, err := Run(bg, noAgent); err == nil {
		t.Error("warm start with no Pythia agent succeeded silently")
	}
}

// TestExtGeneralizationRunsAtTinyScale renders the full matrix at a tiny
// scale and proves the lifecycle accounting: a second render over the
// same populated policy and result stores performs zero simulations.
func TestExtGeneralizationRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ResetCaches()
	defer ResetCaches()
	SetResultStore(t.TempDir())
	defer SetResultStore("")
	SetPolicyStore(t.TempDir())
	defer SetPolicyStore("")

	tb, err := ExtGeneralization(bg, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// tinyScale caps the matrix edge at 1 workload: 1 data row, 2 columns.
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 2 {
		t.Fatalf("matrix shape wrong:\n%s", tb.Render())
	}

	// Restart: everything — training included — must come from the stores.
	ResetCaches()
	before := SimCount()
	tb2, err := ExtGeneralization(bg, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if delta := SimCount() - before; delta != 0 {
		t.Errorf("re-render executed %d simulations, want 0 (warm evaluations must never re-train)", delta)
	}
	if tb2.Render() != tb.Render() {
		t.Error("re-rendered matrix differs from the original")
	}
}

func TestExtWarmStartRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ResetCaches()
	defer ResetCaches()
	tb, err := ExtWarmStart(bg, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload (tinyScale cap) × 2 arms.
	if len(tb.Rows) != 2 {
		t.Fatalf("warm-start rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	if tb.Rows[0][1] != "cold" || tb.Rows[1][1] != "warm" {
		t.Errorf("arm ordering wrong:\n%s", tb.Render())
	}
	if tb.Rows[1][len(tb.Rows[1])-1] == "-" {
		t.Error("warm row lacks the converge-speedup column")
	}
}

// TestWarmExperimentsSurvivePersistFailure: an unwritable policy store
// degrades training to "no reuse", never to a failed experiment — the
// trained envelope is delivered past the persist error and the table
// still renders (the store's delivery-beats-persistence contract,
// honored by the experiment callers).
func TestWarmExperimentsSurvivePersistFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ResetCaches()
	defer ResetCaches()
	st := SetPolicyStore(t.TempDir())
	defer SetPolicyStore("")
	defer fault.Enable(fsutil.FPWriteAtomic, fault.Spec{Err: errors.New("injected disk failure")})()

	tb, err := ExtWarmStart(bg, tinyScale)
	if err != nil {
		t.Fatalf("persist-only failure aborted the experiment: %v", err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("table incomplete:\n%s", tb.Render())
	}
	if st.Writes() != 0 {
		t.Errorf("store recorded %d writes past the failpoint", st.Writes())
	}
}
