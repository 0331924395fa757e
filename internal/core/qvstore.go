package core

// QVStore is the hierarchical, table-based Q-value store of §4.2.1. It is
// organized as one vault per program feature; each vault holds several
// planes (tile-coding tiles). A plane is a small 2-D table indexed by a
// hashed feature value and the action index, storing a partial Q-value.
//
//	Q(φ, A)  = Σ_planes plane[idx_p(φ)][A]      (within a vault)
//	Q(S, A)  = max_vaults Q(φ_i, A)             (Eqn. 3)
//
// The per-plane shifting constants of the paper's tile coding are derived
// deterministically from the store's seed.
//
// The store mirrors the paper's pipelined QVStore search (§4.2.2) in
// software: the plane row index depends only on the feature value, never on
// the action, so a state's (vault, plane) row base offsets are resolved
// ONCE per state into a ResolvedSig, and Q / ArgmaxQ / Update then scan
// contiguous action rows off the precomputed offsets. Each vault's planes
// live in one flat plane-major table for cache locality. PERF.md describes
// the design and its measured effect.

// padCap rounds a scratch buffer's element count up so its allocation
// fills whole 64-byte cache lines. Each simulated core runs its own agent,
// and harness.RunAll runs many concurrently; Go places allocations whose
// size class is a multiple of 64 on line boundaries, so padded scratch
// buffers from different cores never share a cache line (no false
// sharing). Slice lengths are unchanged — only capacity is padded.
func padCap(n, elemSize int) int { return ((n*elemSize + 63) &^ 63) / elemSize }

// qvMix is a 64-bit finalizer (splitmix64-style) used to hash feature
// values into plane indices.
func qvMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vault holds one feature's planes flattened into a single plane-major
// table: plane p's row r occupies data[p*planeSize + r*numActions : ... +
// numActions].
type vault struct {
	feature Feature
	shifts  []uint64 // per-plane shifting constants (tile offsets)
	data    []float64
}

// QVStore records Q-values for every observed state-action pair.
//
// A QVStore belongs to one agent: the resolve/scan scratch buffers make it
// NOT safe for concurrent use (the harness runs one agent per simulated
// core, each with its own store).
type QVStore struct {
	vaults     []vault
	featureDim int
	numActions int
	numPlanes  int
	initQ      float64
	quantStep  float64 // 0 = full precision
	mask       uint64  // featureDim - 1
	planeSize  int     // featureDim * numActions

	// Scratch buffers reused by the search and by the StateSig-based
	// convenience API, so the hot path allocates nothing.
	vbuf, maxbuf []float64
	rs1, rs2     ResolvedSig
}

// NewQVStore builds a store for the given features with featureDim entries
// per plane (128 in the basic config), numPlanes planes per vault, and
// initQ as the optimistic initial state-action Q-value (1/(1-γ),
// Algorithm 1 line 2). seed fixes the per-plane shifting constants.
func NewQVStore(features []Feature, featureDim, numActions, numPlanes int, initQ float64, seed uint64) *QVStore {
	if featureDim <= 0 || featureDim&(featureDim-1) != 0 {
		panic("core: QVStore feature dimension must be a power of two")
	}
	if numActions <= 0 || numPlanes <= 0 || len(features) == 0 {
		panic("core: QVStore needs features, actions and planes")
	}
	s := &QVStore{
		featureDim: featureDim,
		numActions: numActions,
		numPlanes:  numPlanes,
		initQ:      initQ,
		mask:       uint64(featureDim - 1),
		planeSize:  featureDim * numActions,
		vbuf:       make([]float64, numActions, padCap(numActions, 8)),
		maxbuf:     make([]float64, numActions, padCap(numActions, 8)),
	}
	perPlane := initQ / float64(numPlanes)
	for vi, f := range features {
		v := vault{
			feature: f,
			shifts:  make([]uint64, numPlanes),
			data:    make([]float64, numPlanes*s.planeSize),
		}
		for p := 0; p < numPlanes; p++ {
			v.shifts[p] = qvMix(seed + uint64(vi)*1000003 + uint64(p)*7919)
		}
		for i := range v.data {
			v.data[i] = perPlane
		}
		s.vaults = append(s.vaults, v)
	}
	s.rs1 = s.NewResolvedSig()
	s.rs2 = s.NewResolvedSig()
	return s
}

// Features returns the features the store's vaults correspond to.
func (s *QVStore) Features() []Feature {
	out := make([]Feature, len(s.vaults))
	for i, v := range s.vaults {
		out[i] = v.feature
	}
	return out
}

// rowBase computes the flat-table base offset of the action row that a
// feature value hashes to in plane p of a vault.
func (s *QVStore) rowBase(shift uint64, p int, featVal uint64) int32 {
	idx := int(qvMix(featVal+shift) & s.mask)
	return int32(p*s.planeSize + idx*s.numActions)
}

// StateSig precomputes the per-vault feature values of a state: this is
// what EQ entries carry so Q-value updates after eviction see the original
// state.
type StateSig []uint64

// Signature extracts the state signature (one feature value per vault).
// It allocates; the agent's hot path uses ResolveState instead.
func (s *QVStore) Signature(st *State) StateSig {
	sig := make(StateSig, len(s.vaults))
	for i, v := range s.vaults {
		sig[i] = v.feature.Value(st)
	}
	return sig
}

// ResolvedSig is a state signature with every (vault, plane) pair's row
// base offset resolved: offs[v*numPlanes+p] indexes vault v's flat table.
// Resolving costs one hash per (vault, plane); afterwards every Q lookup,
// search and update is hash-free and scans contiguous rows.
type ResolvedSig struct {
	vals []uint64
	offs []int32
}

// Vals returns the raw per-vault feature values.
func (r *ResolvedSig) Vals() StateSig { return StateSig(r.vals) }

// copyFrom replaces r's contents, reusing its buffers.
func (r *ResolvedSig) copyFrom(vals []uint64, offs []int32) {
	r.vals = append(r.vals[:0], vals...)
	r.offs = append(r.offs[:0], offs...)
}

// NewResolvedSig allocates a ResolvedSig sized for the store, for reuse via
// ResolveState / ResolveSig.
func (s *QVStore) NewResolvedSig() ResolvedSig {
	return ResolvedSig{
		vals: make([]uint64, len(s.vaults), padCap(len(s.vaults), 8)),
		offs: make([]int32, len(s.vaults)*s.numPlanes, padCap(len(s.vaults)*s.numPlanes, 4)),
	}
}

// ResolveState extracts the state's feature values and resolves all row
// base offsets into r without allocating.
func (s *QVStore) ResolveState(st *State, r *ResolvedSig) {
	r.vals = r.vals[:0]
	r.offs = r.offs[:0]
	for vi := range s.vaults {
		v := &s.vaults[vi]
		fv := v.feature.Value(st)
		r.vals = append(r.vals, fv)
		for p, shift := range v.shifts {
			r.offs = append(r.offs, s.rowBase(shift, p, fv))
		}
	}
}

// ResolveSig resolves an already-extracted raw signature into r.
func (s *QVStore) ResolveSig(sig StateSig, r *ResolvedSig) {
	r.vals = append(r.vals[:0], sig...)
	r.offs = r.offs[:0]
	for vi := range s.vaults {
		v := &s.vaults[vi]
		for p, shift := range v.shifts {
			r.offs = append(r.offs, s.rowBase(shift, p, sig[vi]))
		}
	}
}

// VaultQ returns Q(φ_i, A) for vault i.
func (s *QVStore) VaultQ(i int, featVal uint64, action int) float64 {
	v := &s.vaults[i]
	var q float64
	for p, shift := range v.shifts {
		q += v.data[int(s.rowBase(shift, p, featVal))+action]
	}
	return q
}

// QResolved returns the state-action value — the maximum constituent
// feature-action Q-value (Eqn. 3) — using precomputed row offsets.
func (s *QVStore) QResolved(r *ResolvedSig, action int) float64 {
	var best float64
	for vi := range s.vaults {
		data := s.vaults[vi].data
		base := vi * s.numPlanes
		var q float64
		for p := 0; p < s.numPlanes; p++ {
			q += data[int(r.offs[base+p])+action]
		}
		if vi == 0 || q > best {
			best = q
		}
	}
	return best
}

// ArgmaxQResolved returns the action with the highest Q-value and that
// value, mirroring the pipelined QVStore search of §4.2.2: every plane row
// a state resolves to is a contiguous run of numActions partial Q-values,
// summed per vault and max-combined across vaults with no hashing. Each
// action's value is computed exactly as QResolved computes it (planes
// summed in order, vaults max-combined in order with a strict >) and left
// in the scan buffer ScanQ reads; ties keep the lowest action.
func (s *QVStore) ArgmaxQResolved(r *ResolvedSig) (action int, q float64) {
	mx := s.maxbuf
	if len(s.vaults) == 2 && s.numPlanes == 3 {
		// The basic configuration's shape: one pass over the actions with
		// its six rows hoisted, no copy and no vault scratch. Each sum
		// starts at its first plane where QResolved starts at 0 + it:
		// x == 0+x bitwise for every table value, as the store never
		// holds -0 (see the resolved equivalence test).
		nA := len(mx)
		d0, d1 := s.vaults[0].data, s.vaults[1].data
		o := r.offs[:6]
		a0, a1, a2 := d0[o[0]:][:nA], d0[o[1]:][:nA], d0[o[2]:][:nA]
		b0, b1, b2 := d1[o[3]:][:nA], d1[o[4]:][:nA], d1[o[5]:][:nA]
		for a := range mx {
			v := a0[a] + a1[a] + a2[a]
			if w := b0[a] + b1[a] + b2[a]; w > v {
				v = w
			}
			mx[a] = v
			if a == 0 || v > q {
				action, q = a, v
			}
		}
		return action, q
	}
	return s.argmaxRows(r)
}

// argmaxRows is ArgmaxQResolved for any store shape. It goes row by row:
// a per-action loop over a variable number of rows ran 2-4x slower on
// CP-HW's 127 actions, on 1-plane stores and on 3-vault stores.
func (s *QVStore) argmaxRows(r *ResolvedSig) (action int, q float64) {
	nA := s.numActions
	vb, mx := s.vbuf, s.maxbuf
	for vi := range s.vaults {
		data := s.vaults[vi].data
		base := vi * s.numPlanes
		// Vault 0 accumulates straight into the max buffer; later vaults
		// use the scratch and max-merge. The first plane initializes the
		// accumulator (x == 0+x bitwise for every table value; the store
		// never holds -0, see the resolved equivalence test).
		buf := vb
		if vi == 0 {
			buf = mx
		}
		off := int(r.offs[base])
		copy(buf, data[off:off+nA])
		for p := 1; p < s.numPlanes; p++ {
			off = int(r.offs[base+p])
			row := data[off : off+nA]
			acc := buf[:len(row)] // equal-length reslice elides bounds checks
			for a, pq := range row {
				acc[a] += pq
			}
		}
		if vi > 0 {
			mxa := mx[:len(buf)]
			for a, vq := range buf {
				if vq > mxa[a] {
					mxa[a] = vq
				}
			}
		}
	}
	action, q = 0, mx[0]
	for a := 1; a < nA; a++ {
		if mx[a] > q {
			action, q = a, mx[a]
		}
	}
	return action, q
}

// UpdateResolved applies the SARSA temporal-difference step to Q(S1, A1):
//
//	Q(S1,A1) += α [R + γ Q(S2,A2) − Q(S1,A1)]
//
// The correction is distributed equally across each vault's planes so the
// per-vault sum moves by the full α-scaled TD error. Both signatures must
// carry resolved offsets.
func (s *QVStore) UpdateResolved(r1 *ResolvedSig, a1 int, reward float64, r2 *ResolvedSig, a2 int, alpha, gamma float64) {
	s.UpdateResolvedTarget(r1, a1, reward+gamma*s.QResolved(r2, a2), alpha)
}

// Q returns the state-action value for a raw signature (Eqn. 3). It
// resolves into internal scratch; ResolveSig + QResolved avoids the
// per-call hashing when the same state is queried repeatedly.
func (s *QVStore) Q(sig StateSig, action int) float64 {
	s.ResolveSig(sig, &s.rs1)
	return s.QResolved(&s.rs1, action)
}

// ArgmaxQ returns the best action and its Q-value for a raw signature.
func (s *QVStore) ArgmaxQ(sig StateSig) (action int, q float64) {
	s.ResolveSig(sig, &s.rs1)
	return s.ArgmaxQResolved(&s.rs1)
}

// Update applies the SARSA step for raw signatures.
func (s *QVStore) Update(sig1 StateSig, a1 int, reward float64, sig2 StateSig, a2 int, alpha, gamma float64) {
	s.ResolveSig(sig1, &s.rs1)
	s.ResolveSig(sig2, &s.rs2)
	s.UpdateResolved(&s.rs1, a1, reward, &s.rs2, a2, alpha, gamma)
}

// SetQuantization makes the store behave like the paper's 16-bit
// fixed-point hardware: every stored partial Q-value is rounded to a
// multiple of step after each update. step <= 0 restores full precision.
func (s *QVStore) SetQuantization(step float64) { s.quantStep = step }

func (s *QVStore) quantize(x float64) float64 {
	if s.quantStep <= 0 {
		return x
	}
	n := x / s.quantStep
	if n >= 0 {
		return float64(int64(n+0.5)) * s.quantStep
	}
	return float64(int64(n-0.5)) * s.quantStep
}

// StorageBits returns the total Q-value storage in bits assuming the
// paper's 16-bit fixed-point entries (Table 4).
func (s *QVStore) StorageBits() int {
	return len(s.vaults) * s.numPlanes * s.featureDim * s.numActions * 16
}
