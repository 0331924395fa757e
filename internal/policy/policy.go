// Package policy is the trained-policy lifecycle store: a
// content-addressed, on-disk collection of learned Pythia Q-table
// snapshots. The paper's headline framing is that Pythia's policy is
// *programmable state* — configuration registers and Q-tables that can be
// customized and reused in silicon without refabrication; this package is
// the software analogue: train once, persist the learned QVStore, and
// warm-start any number of later evaluations from it.
//
// Each entry is an envelope around the raw PYQV01 snapshot bytes
// (core.QVStore.Snapshot): a fingerprint of the full Pythia configuration,
// the trace generator version, the training provenance (workload, scale,
// agent seed) and a payload schema version. Restore re-checks every one of
// those before touching an agent, so a policy can never be loaded into a
// mismatched configuration or across a generator bump — both fail with a
// typed error (ErrMismatch).
//
// The store embeds the store core of internal/fsutil, shared with
// internal/results and the stream trace cache, for its directory,
// counters, atomic writes, stale-temp sweep and deduplicated
// get-or-train; this package keeps the ID-to-file mapping, the envelope
// codec and its identity checks.
package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"pythia/internal/core"
	"pythia/internal/trace"
)

// SchemaVersion is baked into every envelope and fingerprint; bump it when
// the envelope's JSON shape or the snapshot payload semantics change
// incompatibly, so stale entries miss instead of half-decoding.
const SchemaVersion = 1

// ErrMismatch is the typed failure of every envelope/agent compatibility
// check: restoring into a different configuration, across a trace
// generator bump, or from a future schema version all wrap it.
var ErrMismatch = errors.New("policy: envelope does not match agent")

// Provenance records what produced a trained policy: enough to reproduce
// the training run, and the identity the store's content addressing hashes.
type Provenance struct {
	// Workload is the training workload (mix) display name.
	Workload string `json:"workload"`
	// Trace is the canonical trace identity (trace.Workload.Key: name,
	// trace seed, length, generator version); two same-named workloads
	// with different trace seeds must not share a policy.
	Trace string `json:"trace,omitempty"`
	// Scale is the canonical scale identity (harness Scale.Key()).
	Scale string `json:"scale"`
	// Seed is the agent's RNG/tile seed (core.Config.Seed).
	Seed int64 `json:"seed"`
	// Cores is the core count of the training simulation: a policy
	// learned under multi-core DRAM contention is not the single-core
	// policy, so the distinction is part of the identity.
	Cores int `json:"cores,omitempty"`
	// ParentID is the policy the training agent was itself warm-started
	// from, if any; a continued policy must never content-address as the
	// from-scratch one.
	ParentID string `json:"parent_id,omitempty"`
	// Sims is how many simulations the producing process executed to
	// train this policy (0 when it was itself served from a store).
	Sims int64 `json:"sims"`
}

// Meta is the metadata half of an envelope — everything but the snapshot
// payload. Listing endpoints return Metas so a catalogue of policies does
// not ship every Q-table over the wire.
type Meta struct {
	// ID is the content address: a deterministic digest of the config
	// fingerprint, training identity, generator version and schema
	// version. Two processes training the same policy derive the same ID.
	ID string `json:"id"`
	// Config is the Pythia configuration name ("pythia", "pythia-strict").
	Config string `json:"config"`
	// ConfigFingerprint digests the full core.Config; Restore refuses an
	// agent whose configuration fingerprints differently.
	ConfigFingerprint string `json:"config_fingerprint"`
	// GenVersion pins the trace generator the policy was trained against.
	GenVersion int `json:"gen_version"`
	// SchemaVersion is the envelope/payload schema.
	SchemaVersion int `json:"schema_version"`
	// TrainedOn is the training provenance.
	TrainedOn Provenance `json:"trained_on"`
	// SnapshotBytes is the payload size (PYQV01 stream length).
	SnapshotBytes int `json:"snapshot_bytes"`
	// CreatedAt is when the policy was trained.
	CreatedAt time.Time `json:"created_at"`
}

// Envelope is a complete stored policy: metadata plus the raw PYQV01
// snapshot bytes (base64 in JSON).
type Envelope struct {
	Meta
	Snapshot []byte `json:"snapshot"`
}

// ConfigFingerprint condenses a full Pythia configuration into a
// fixed-width digest. The whole struct is rendered (%+v over plain value
// fields, deterministic order) rather than a hand-picked subset, for the
// same reason harness.cacheKey does: any omitted field would let two
// configurations that learn different policies share an entry.
func ConfigFingerprint(cfg core.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", cfg)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ID derives the content address for a policy trained with cfg under the
// given provenance. trace.GenVersion and SchemaVersion are mixed in, so a
// generator or schema bump invalidates every prior entry without any
// deletion pass. Provenance.Sims is deliberately excluded: it describes
// the producing process, not the policy.
func ID(cfg core.Config, prov Provenance) string {
	h := sha256.New()
	fmt.Fprintf(h, "g%d|v%d|%s", trace.GenVersion, SchemaVersion, ConfigFingerprint(cfg))
	for _, p := range []string{prov.Workload, prov.Trace, prov.Scale,
		fmt.Sprint(prov.Seed), fmt.Sprint(prov.Cores), prov.ParentID} {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return "pol-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// New builds a fully-populated envelope for a freshly trained agent. The
// caller supplies the provenance; the config, fingerprint, versions and ID
// are derived.
func New(p *core.Pythia, prov Provenance) (Envelope, error) {
	var buf bytes.Buffer
	if err := p.SnapshotPolicy(&buf); err != nil {
		return Envelope{}, fmt.Errorf("policy: snapshot: %w", err)
	}
	cfg := p.Config()
	return Envelope{
		Meta: Meta{
			ID:                ID(cfg, prov),
			Config:            cfg.Name,
			ConfigFingerprint: ConfigFingerprint(cfg),
			GenVersion:        trace.GenVersion,
			SchemaVersion:     SchemaVersion,
			TrainedOn:         prov,
			SnapshotBytes:     buf.Len(),
			CreatedAt:         time.Now().UTC(),
		},
		Snapshot: buf.Bytes(),
	}, nil
}

// CheckAgainst verifies that the envelope can legally restore into an
// agent running cfg. Every failure wraps ErrMismatch with the specific
// incompatibility spelled out.
func (e *Envelope) CheckAgainst(cfg core.Config) error {
	if e.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: envelope schema v%d, this build understands v%d", ErrMismatch, e.SchemaVersion, SchemaVersion)
	}
	if e.GenVersion != trace.GenVersion {
		return fmt.Errorf("%w: policy trained against trace generator v%d, this build generates v%d", ErrMismatch, e.GenVersion, trace.GenVersion)
	}
	if fp := ConfigFingerprint(cfg); fp != e.ConfigFingerprint {
		return fmt.Errorf("%w: policy trained with config %q (fingerprint %s), agent runs %q (fingerprint %s)",
			ErrMismatch, e.Config, e.ConfigFingerprint, cfg.Name, fp)
	}
	return nil
}

// Restore warm-starts an agent from the envelope after checking
// compatibility. The underlying core restore is atomic and strict
// (geometry re-verified, trailing bytes rejected), so a corrupted payload
// cannot half-apply.
func (e *Envelope) Restore(p *core.Pythia) error {
	if err := e.CheckAgainst(p.Config()); err != nil {
		return err
	}
	if err := p.RestorePolicy(bytes.NewReader(e.Snapshot)); err != nil {
		return fmt.Errorf("policy: restore %s: %w", e.ID, err)
	}
	return nil
}
