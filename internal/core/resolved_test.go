package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pythia/internal/prefetch"
)

// This file proves the resolved-signature fast path is a pure optimization:
// refStore below is a line-for-line copy of the pre-ResolvedSig QVStore
// (per-plane tables, per-action hashing), and every Q-value, action choice
// and update it produces must match the flat-table implementation
// BIT-identically. The agent-level golden fingerprints at the bottom were
// captured from the seed implementation before the rewrite.

type refPlane struct {
	shift uint64
	table []float64
}

type refVault struct{ planes []refPlane }

// refStore is the straightforward reference Q-value store: one table per
// plane, the row hash recomputed for every access.
type refStore struct {
	vaults     []refVault
	featureDim int
	numActions int
	numPlanes  int
	quantStep  float64
}

func newRefStore(features []Feature, featureDim, numActions, numPlanes int, initQ float64, seed uint64) *refStore {
	s := &refStore{featureDim: featureDim, numActions: numActions, numPlanes: numPlanes}
	perPlane := initQ / float64(numPlanes)
	for vi := range features {
		var v refVault
		for p := 0; p < numPlanes; p++ {
			pl := refPlane{
				shift: qvMix(seed + uint64(vi)*1000003 + uint64(p)*7919),
				table: make([]float64, featureDim*numActions),
			}
			for i := range pl.table {
				pl.table[i] = perPlane
			}
			v.planes = append(v.planes, pl)
		}
		s.vaults = append(s.vaults, v)
	}
	return s
}

func (s *refStore) index(pl *refPlane, featVal uint64) int {
	return int(qvMix(featVal+pl.shift) & uint64(s.featureDim-1))
}

func (s *refStore) vaultQ(i int, featVal uint64, action int) float64 {
	v := &s.vaults[i]
	var q float64
	for p := range v.planes {
		pl := &v.planes[p]
		q += pl.table[s.index(pl, featVal)*s.numActions+action]
	}
	return q
}

func (s *refStore) q(sig StateSig, action int) float64 {
	best := s.vaultQ(0, sig[0], action)
	for i := 1; i < len(s.vaults); i++ {
		if q := s.vaultQ(i, sig[i], action); q > best {
			best = q
		}
	}
	return best
}

func (s *refStore) argmaxQ(sig StateSig) (action int, q float64) {
	action, q = 0, s.q(sig, 0)
	for a := 1; a < s.numActions; a++ {
		if qa := s.q(sig, a); qa > q {
			action, q = a, qa
		}
	}
	return action, q
}

func (s *refStore) quantize(x float64) float64 {
	if s.quantStep <= 0 {
		return x
	}
	n := x / s.quantStep
	if n >= 0 {
		return float64(int64(n+0.5)) * s.quantStep
	}
	return float64(int64(n-0.5)) * s.quantStep
}

func (s *refStore) update(sig1 StateSig, a1 int, reward float64, sig2 StateSig, a2 int, alpha, gamma float64) {
	target := reward + gamma*s.q(sig2, a2)
	for i := range s.vaults {
		v := &s.vaults[i]
		qOld := s.vaultQ(i, sig1[i], a1)
		adj := alpha * (target - qOld) / float64(s.numPlanes)
		for p := range v.planes {
			pl := &v.planes[p]
			idx := s.index(pl, sig1[i])*s.numActions + a1
			pl.table[idx] = s.quantize(pl.table[idx] + adj)
		}
	}
}

// tablesEqual compares every stored partial Q-value of the two layouts
// bit-for-bit.
func tablesEqual(t *testing.T, ref *refStore, fast *QVStore) {
	t.Helper()
	for vi := range ref.vaults {
		for p := range ref.vaults[vi].planes {
			table := ref.vaults[vi].planes[p].table
			flat := fast.vaults[vi].data[p*fast.planeSize : (p+1)*fast.planeSize]
			for i := range table {
				if math.Float64bits(table[i]) != math.Float64bits(flat[i]) {
					t.Fatalf("vault %d plane %d entry %d: ref %v fast %v", vi, p, i, table[i], flat[i])
				}
			}
		}
	}
}

// TestResolvedMatchesReference drives the reference and the fast store
// through identical random Q/ArgmaxQ/Update streams across several seeds
// (full precision and fixed point) and demands bit-identical Q-values,
// action choices and table contents throughout.
func TestResolvedMatchesReference(t *testing.T) {
	features := []Feature{FeaturePCDelta, FeatureLast4Deltas, {CFPCPath, DFOffset}}
	for _, seed := range []uint64{1, 2, 42, 1234} {
		for _, quant := range []float64{0, 1.0 / 256} {
			const dim, actions, planes = 64, 16, 3
			initQ := 1 / (1 - 0.556)
			ref := newRefStore(features, dim, actions, planes, initQ, seed)
			ref.quantStep = quant
			fast := NewQVStore(features, dim, actions, planes, initQ, seed)
			fast.SetQuantization(quant)

			rng := rand.New(rand.NewSource(int64(seed)))
			rsig := fast.NewResolvedSig()
			prev := StateSig{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			prevA := 0
			for step := 0; step < 4000; step++ {
				st := State{
					PC:     uint64(rng.Intn(64) * 4),
					Delta:  rng.Intn(17) - 8,
					Offset: rng.Intn(64),
					PCPath: rng.Uint64() & 0xffff,
				}
				sig := fast.Signature(&st)
				fast.ResolveState(&st, &rsig)
				for i, v := range rsig.Vals() {
					if v != sig[i] {
						t.Fatalf("ResolveState vals %v != Signature %v", rsig.Vals(), sig)
					}
				}

				a := rng.Intn(actions)
				if rq, fq := ref.q(sig, a), fast.QResolved(&rsig, a); math.Float64bits(rq) != math.Float64bits(fq) {
					t.Fatalf("seed %d step %d: Q mismatch ref %v fast %v", seed, step, rq, fq)
				}
				ra, rv := ref.argmaxQ(sig)
				fa, fv := fast.ArgmaxQResolved(&rsig)
				if ra != fa || math.Float64bits(rv) != math.Float64bits(fv) {
					t.Fatalf("seed %d step %d: argmax mismatch ref (%d,%v) fast (%d,%v)", seed, step, ra, rv, fa, fv)
				}

				reward := float64(rng.Intn(35) - 14)
				ref.update(sig, a, reward, prev, prevA, 0.1, 0.556)
				// Exercise both fast update entry points.
				if step%2 == 0 {
					fast.Update(sig, a, reward, prev, prevA, 0.1, 0.556)
				} else {
					var rs2 ResolvedSig = fast.NewResolvedSig()
					fast.ResolveSig(prev, &rs2)
					fast.UpdateResolved(&rsig, a, reward, &rs2, prevA, 0.1, 0.556)
				}
				prev, prevA = sig, a
			}
			tablesEqual(t, ref, fast)
		}
	}
}

// goldenFingerprint drives a full agent over a fixed mixed access stream
// (strided, random and page-end phases) and fingerprints its decisions and
// final Q-tables.
type goldenFingerprint struct {
	qUpdates, taken, np, oop, explored, at, al int64
	acHash                                     int64
	qHash                                      uint64
}

func fingerprintAgent(t *testing.T, cfg Config) goldenFingerprint {
	t.Helper()
	p := MustNew(cfg, fixedBW(0.3))
	x := uint64(99)
	line := uint64(1 << 22)
	for i := 0; i < 40000; i++ {
		switch (i / 500) % 3 {
		case 0:
			line++
		case 1:
			x = x*6364136223846793005 + 1442695040888963407
			line = x >> 30
		case 2:
			line += 64
		}
		pc := 0x400 + uint64(i%7)*4
		for _, c := range p.Train(prefetch.Access{PC: pc, Line: line}) {
			if i%3 != 0 {
				p.Fill(c)
			}
		}
	}
	st := p.Stats()
	h := fnv.New64a()
	if err := p.SnapshotPolicy(h); err != nil {
		t.Fatal(err)
	}
	var ac int64
	for i, c := range st.ActionCounts {
		ac += int64(i+1) * c
	}
	return goldenFingerprint{
		qUpdates: st.QUpdates, taken: st.PrefetchTaken, np: st.NoPrefetch,
		oop: st.OutOfPage, explored: st.Explored, at: st.RewardAT, al: st.RewardAL,
		acHash: ac, qHash: h.Sum64(),
	}
}

// TestAgentMatchesSeedGolden pins whole-agent behavior — Q-updates, action
// selections and the final Q-table bytes — to fingerprints captured from
// the seed (pre-ResolvedSig) implementation on linux/amd64. A mismatch
// means the fast path changed observable behavior, not just speed.
func TestAgentMatchesSeedGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want goldenFingerprint
	}{
		{"basic", BasicConfig(), goldenFingerprint{39744, 15965, 22558, 1477, 389, 8090, 4040, 204325, 0x61ba6926debea5ed}},
		{"strict", StrictConfig(), goldenFingerprint{39744, 15308, 23229, 1463, 389, 8089, 4040, 202469, 0xb3e12e388a221c9a}},
		{"fixedpoint", func() Config { c := BasicConfig(); c.FixedPoint = true; return c }(),
			goldenFingerprint{39744, 15963, 22560, 1477, 389, 8090, 4040, 204320, 0x36ed9d00771ce008}},
		{"planes1", func() Config { c := BasicConfig(); c.PlanesPerVault = 1; c.Seed = 7; return c }(),
			goldenFingerprint{39744, 16218, 22348, 1434, 392, 8115, 4074, 204089, 0xdf312a31853de559}},
		// The next two pin the generic scan shape (any vault and plane
		// count, a wide action row) beside the basic 2-vault/3-plane one;
		// they were captured from the implementation before the one-pass
		// ArgmaxQResolved and the open-addressed EQ index.
		{"vaults3planes2", func() Config {
			c := BasicConfig()
			c.Features = append(c.Features, Feature{CFPCPath, DFOffset})
			c.PlanesPerVault = 2
			c.Seed = 11
			return c
		}(), goldenFingerprint{39744, 38194, 1031, 775, 378, 8520, 4281, 213450, 0x162971941a0864bb}},
		{"cphw", NewCPHW(nil).Config(),
			goldenFingerprint{39744, 21525, 2287, 16188, 389, 4543, 2231, 2451200, 0x6b1ff392743b2770}},
	} {
		if got := fingerprintAgent(t, tc.cfg); got != tc.want {
			t.Errorf("%s: fingerprint diverged from seed implementation:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestEQResolvedRoundTrip checks that resolved offsets survive the queue:
// entries inserted with InsertResolved must come back from HeadResolved and
// eviction with the exact offsets they were resolved with.
func TestEQResolvedRoundTrip(t *testing.T) {
	qv := testStore()
	q := NewEQ(2)
	rs := qv.NewResolvedSig()

	st1 := State{PC: 0x40, Delta: 1}
	qv.ResolveState(&st1, &rs)
	want1 := append([]int32(nil), rs.offs...)
	q.InsertResolved(&rs, 3, 100, true, 0, false)

	st2 := State{PC: 0x44, Delta: 2}
	qv.ResolveState(&st2, &rs) // reuse the buffer: the queue must have copied
	q.InsertResolved(&rs, 4, 101, true, 0, false)

	head, a, ok := q.HeadResolved()
	if !ok || a != 3 {
		t.Fatalf("HeadResolved = (%v, %d, %v)", head, a, ok)
	}
	for i, o := range head.offs {
		if o != want1[i] {
			t.Fatalf("head offsets %v, want %v", head.offs, want1)
		}
	}

	st3 := State{PC: 0x48, Delta: 3}
	qv.ResolveState(&st3, &rs)
	ev := q.InsertResolved(&rs, 5, 102, true, 0, false)
	if ev == nil || ev.Action != 3 || ev.rs == nil {
		t.Fatalf("eviction lost the entry: %+v", ev)
	}
	for i, o := range ev.rs.offs {
		if o != want1[i] {
			t.Fatalf("evicted offsets %v, want %v", ev.rs.offs, want1)
		}
	}
	// The evicted resolved signature must agree with a fresh resolve of the
	// same state when used for lookups.
	fresh := qv.NewResolvedSig()
	qv.ResolveState(&st1, &fresh)
	if qv.QResolved(ev.rs, 3) != qv.QResolved(&fresh, 3) {
		t.Error("evicted resolved signature reads a different Q-value")
	}
}
