package policy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pythia/internal/core"
	"pythia/internal/fault"
	"pythia/internal/fsutil"
	"pythia/internal/policy"
	"pythia/internal/prefetch"
	"pythia/internal/trace"
)

// trainAgent feeds a deterministic +1 line stream so the agent has a
// non-trivial learned policy to snapshot.
func trainAgent(cfg core.Config, n int) *core.Pythia {
	p := core.MustNew(cfg, nil)
	line := uint64(1 << 22)
	for i := 0; i < n; i++ {
		for _, c := range p.Train(prefetch.Access{PC: 0x400, Line: line}) {
			p.Fill(c)
		}
		line++
	}
	return p
}

func testEnvelope(t *testing.T) policy.Envelope {
	t.Helper()
	p := trainAgent(core.BasicConfig(), 5000)
	env, err := policy.New(p, policy.Provenance{Workload: "test-wl", Scale: "quick", Seed: 1, Sims: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := testEnvelope(t)
	if env.ID == "" || env.SnapshotBytes != len(env.Snapshot) || env.GenVersion != trace.GenVersion {
		t.Fatalf("envelope metadata incomplete: %+v", env.Meta)
	}
	warm := core.MustNew(core.BasicConfig(), nil)
	if err := env.Restore(warm); err != nil {
		t.Fatal(err)
	}
	// The restored agent carries the trained Q-values.
	st := core.State{PC: 0x400, Delta: 1}
	trained := trainAgent(core.BasicConfig(), 5000)
	wSig := warm.QVStore().Signature(&st)
	tSig := trained.QVStore().Signature(&st)
	for a := range core.BasicConfig().Actions {
		if warm.QVStore().Q(wSig, a) != trained.QVStore().Q(tSig, a) {
			t.Fatalf("restored Q differs at action %d", a)
		}
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	env := testEnvelope(t)
	for name, cfg := range map[string]core.Config{
		"strict rewards": core.StrictConfig(),
		"other seed": func() core.Config {
			c := core.BasicConfig()
			c.Seed = 99
			return c
		}(),
		"other alpha": func() core.Config {
			c := core.BasicConfig()
			c.Alpha = 0.2
			return c
		}(),
	} {
		agent := core.MustNew(cfg, nil)
		if err := env.Restore(agent); !errors.Is(err, policy.ErrMismatch) {
			t.Errorf("%s: want ErrMismatch, got %v", name, err)
		}
	}
}

func TestRestoreRejectsVersionSkew(t *testing.T) {
	agent := core.MustNew(core.BasicConfig(), nil)

	gen := testEnvelope(t)
	gen.GenVersion++
	if err := gen.Restore(agent); !errors.Is(err, policy.ErrMismatch) {
		t.Errorf("generator bump: want ErrMismatch, got %v", err)
	}

	schema := testEnvelope(t)
	schema.SchemaVersion++
	if err := schema.Restore(agent); !errors.Is(err, policy.ErrMismatch) {
		t.Errorf("schema bump: want ErrMismatch, got %v", err)
	}
}

func TestIDIsDeterministicAndDiscriminating(t *testing.T) {
	cfg := core.BasicConfig()
	prov := policy.Provenance{Workload: "w", Scale: "s", Seed: 1}
	if policy.ID(cfg, prov) != policy.ID(cfg, prov) {
		t.Error("same inputs derive different IDs")
	}
	// Sims is process provenance, not policy identity.
	withSims := prov
	withSims.Sims = 42
	if policy.ID(cfg, prov) != policy.ID(cfg, withSims) {
		t.Error("Sims changed the content address")
	}
	other := prov
	other.Workload = "w2"
	if policy.ID(cfg, prov) == policy.ID(cfg, other) {
		t.Error("different training workloads share an ID")
	}
	if policy.ID(core.StrictConfig(), prov) == policy.ID(cfg, prov) {
		t.Error("different configs share an ID")
	}
}

func TestStorePutGetList(t *testing.T) {
	s := policy.Open(t.TempDir())
	env := testEnvelope(t)
	if err := s.Put(env); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(env.ID)
	if !ok {
		t.Fatal("stored policy missed")
	}
	if got.ID != env.ID || len(got.Snapshot) != len(env.Snapshot) {
		t.Fatalf("round trip mangled envelope: %+v", got.Meta)
	}
	if _, ok := s.Get("pol-nope"); ok {
		t.Error("absent ID served a hit")
	}
	metas := s.List()
	if len(metas) != 1 || metas[0].ID != env.ID || metas[0].TrainedOn.Workload != "test-wl" {
		t.Fatalf("listing wrong: %+v", metas)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Writes() != 1 {
		t.Errorf("counters hits=%d misses=%d writes=%d, want 1/1/1", s.Hits(), s.Misses(), s.Writes())
	}
}

func TestStoreRejectsRenamedEntry(t *testing.T) {
	dir := t.TempDir()
	s := policy.Open(dir)
	env := testEnvelope(t)
	if err := s.Put(env); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected 1 file, found %d", len(ents))
	}
	// A hand-renamed file must not serve under the new ID: the embedded
	// identity is re-checked, not trusted from the filename.
	if err := os.Rename(filepath.Join(dir, ents[0].Name()), filepath.Join(dir, "pol-aaaabbbbccccdddd.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("pol-aaaabbbbccccdddd"); ok {
		t.Error("renamed entry served under the wrong ID")
	}
	if metas := s.List(); len(metas) != 0 {
		t.Errorf("renamed entry still listed: %+v", metas)
	}
}

func TestGetOrTrainDeduplicatesAndHits(t *testing.T) {
	dir := t.TempDir()
	s := policy.Open(dir)
	env := testEnvelope(t)

	var calls atomic.Int32
	release := make(chan struct{})
	const callers = 8
	var wg, arrived sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			got, _, err := s.GetOrTrain(env.ID, func() (policy.Envelope, error) {
				calls.Add(1)
				<-release
				return env, nil
			})
			if err != nil {
				t.Error(err)
			}
			if got.ID != env.ID {
				t.Errorf("caller got %+v", got.Meta)
			}
		}()
	}
	arrived.Wait()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("train ran %d times for one ID, want 1", got)
	}

	// A fresh store over the same directory (a process restart) serves the
	// entry as a hit without training.
	hit, trained := false, false
	got, hit, err := policy.Open(dir).GetOrTrain(env.ID, func() (policy.Envelope, error) {
		trained = true
		return policy.Envelope{}, nil
	})
	if err != nil || !hit || trained || got.ID != env.ID {
		t.Errorf("restart lookup hit=%v trained=%v err=%v", hit, trained, err)
	}
}

// TestWriteFailureLeavesNoPartialFiles mirrors the result store's
// fault-injection audit: a write that dies between payload and sync must
// deliver the trained policy, surface the error, and leave the store
// directory free of temp or partial entry files.
func TestWriteFailureLeavesNoPartialFiles(t *testing.T) {
	dir := t.TempDir()
	s := policy.Open(dir)
	env := testEnvelope(t)
	boom := errors.New("injected disk failure")
	disable := fault.Enable(fsutil.FPWriteAtomic, fault.Spec{Err: boom})
	defer disable()

	if err := s.Put(env); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected failure", err)
	}
	got, hit, err := s.GetOrTrain(env.ID, func() (policy.Envelope, error) { return env, nil })
	if hit {
		t.Error("failed write somehow produced a hit")
	}
	if !errors.Is(err, boom) {
		t.Errorf("GetOrTrain error = %v, want injected failure surfaced", err)
	}
	if got.ID != env.ID {
		t.Errorf("trained policy lost on write failure: %+v", got.Meta)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("file left behind after injected failures: %s", e.Name())
	}

	// After the fault clears, the same ID persists normally.
	disable()
	if err := s.Put(env); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("store has %d entries after recovery, want 1", s.Len())
	}
}

func TestSweepReclaimsOnlyStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "pol-abc.json.tmp123")
	fresh := filepath.Join(dir, "pol-def.json.tmp456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// The sweep runs on the store's first write.
	s := policy.Open(dir)
	if err := s.Put(testEnvelope(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (a live writer) was reclaimed")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trained.policy.json")
	env := testEnvelope(t)
	if err := policy.WriteFile(path, env); err != nil {
		t.Fatal(err)
	}
	got, err := policy.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != env.ID || len(got.Snapshot) != len(env.Snapshot) {
		t.Fatalf("file round trip mangled envelope: %+v", got.Meta)
	}
	warm := core.MustNew(core.BasicConfig(), nil)
	if err := got.Restore(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := policy.ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("absent file read succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"id":""}`), 0o644)
	if _, err := policy.ReadFile(bad); err == nil || !strings.Contains(err.Error(), "not a policy envelope") {
		t.Errorf("bad file read: %v", err)
	}
}

// TestStoreLayoutPinned pins the policy store's on-disk layout: a fixed
// envelope lands under a fixed file name with fixed bytes, and a store
// over that file serves it to Get and to GetOrTrain without training. Any
// drift in naming or encoding would orphan every stored policy.
func TestStoreLayoutPinned(t *testing.T) {
	const (
		wantName   = "pol-0123456789abcdef.json"
		wantSHA256 = "a6f5a8b15200258f43d8ed35246782325c4455a3cf777fbe8a3e10a7e9ce3da1"
	)
	env := policy.Envelope{
		Meta: policy.Meta{
			ID:                "pol-0123456789abcdef",
			Config:            "pythia",
			ConfigFingerprint: "fedcba9876543210",
			GenVersion:        3,
			SchemaVersion:     policy.SchemaVersion,
			TrainedOn:         policy.Provenance{Workload: "pinned-wl", Scale: "quick", Seed: 7, Sims: 1},
			SnapshotBytes:     4,
			CreatedAt:         time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC),
		},
		Snapshot: []byte("PYQV"),
	}
	dir := t.TempDir()
	if err := policy.Open(dir).Put(env); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != wantName {
		t.Fatalf("store holds %v (err %v), want one file %s", ents, err, wantName)
	}
	data, err := os.ReadFile(filepath.Join(dir, wantName))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Fatalf("entry bytes have SHA-256 %x, want %s:\n%s", sum, wantSHA256, data)
	}

	s := policy.Open(dir)
	if got, ok := s.Get(env.ID); !ok || got.ID != env.ID || string(got.Snapshot) != "PYQV" || !got.CreatedAt.Equal(env.CreatedAt) {
		t.Fatalf("Get = %+v, %v; want the pinned envelope", got.Meta, ok)
	}
	got, hit, err := s.GetOrTrain(env.ID, func() (policy.Envelope, error) {
		t.Error("GetOrTrain trained over a stored policy")
		return env, nil
	})
	if err != nil || !hit || got.ID != env.ID {
		t.Fatalf("GetOrTrain hit=%v err=%v id=%s", hit, err, got.ID)
	}
	if s.Hits() != 2 || s.Misses() != 0 || s.Writes() != 0 {
		t.Errorf("counters hits=%d misses=%d writes=%d, want 2/0/0", s.Hits(), s.Misses(), s.Writes())
	}
}
