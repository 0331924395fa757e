package core

// Scan reuse for the train path. Demand streams are heavily repetitive —
// consecutive demands from a striding PC resolve to the same (vault,
// plane) rows — so Pythia.Train reuses the Q-values of its last
// action-selection scan instead of re-walking the tables. Every reuse is
// bit-exact, not approximate: a reused value is read only when the
// resolved row offsets are identical (SameRows), in which case a fresh
// lookup would have loaded exactly the same table entries in the same
// order (qvbatch_test.go pins this).

// SameRows reports whether two resolved signatures index exactly the same
// plane rows — the condition under which one signature's scan results are
// bitwise valid for the other.
func SameRows(a, b *ResolvedSig) bool {
	if len(a.offs) != len(b.offs) {
		return false
	}
	for i, o := range a.offs {
		if b.offs[i] != o {
			return false
		}
	}
	return true
}

// ScanQ returns the Q-value of an action as computed by the most recent
// ArgmaxQResolved scan, without touching the tables. It equals
// QResolved(r, action) bitwise for any signature r that resolves to the
// same rows as the scanned one (SameRows) — the scan accumulates each
// action's value in exactly QResolved's order, and the max buffer holds
// all of them, not just the winner's. Valid only while no update has run
// since the scan; Pythia.Train uses it to fold the SARSA target's
// Q(S2, A2) lookup into the action-selection scan it just performed.
func (s *QVStore) ScanQ(action int) float64 { return s.maxbuf[action] }

// UpdateResolvedTarget applies the SARSA step toward an already-computed
// target value: UpdateResolved with the Q(S2, A2) lookup factored out, for
// callers that can supply it from a prior scan (ScanQ).
func (s *QVStore) UpdateResolvedTarget(r1 *ResolvedSig, a1 int, target, alpha float64) {
	for vi := range s.vaults {
		data := s.vaults[vi].data
		base := vi * s.numPlanes
		var qOld float64
		for p := 0; p < s.numPlanes; p++ {
			qOld += data[int(r1.offs[base+p])+a1]
		}
		adj := alpha * (target - qOld) / float64(s.numPlanes)
		for p := 0; p < s.numPlanes; p++ {
			idx := int(r1.offs[base+p]) + a1
			data[idx] = s.quantize(data[idx] + adj)
		}
	}
}
