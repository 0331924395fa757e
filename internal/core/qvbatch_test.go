package core

import (
	"math"
	"math/rand"
	"testing"
)

// randState returns a plausible tracker state.
func randState(rng *rand.Rand) State {
	return State{
		PC:     uint64(rng.Intn(64) * 4),
		Delta:  rng.Intn(17) - 8,
		Offset: rng.Intn(64),
		PCPath: rng.Uint64() & 0xffff,
	}
}

// churn applies a stream of random updates so tables hold non-trivial
// values.
func churn(qv *QVStore, rng *rand.Rand, n int) {
	prev := qv.Signature(&State{PC: 4})
	prevA := 0
	for i := 0; i < n; i++ {
		st := randState(rng)
		sig := qv.Signature(&st)
		a := rng.Intn(16)
		qv.Update(sig, a, float64(rng.Intn(35)-14), prev, prevA, 0.1, 0.556)
		prev, prevA = sig, a
	}
}

// TestSameRows pins the reuse condition Pythia.Train checks before
// reading one signature's Q-values off another's scan: the same state
// always resolves to the same rows, signatures on the same rows read
// bitwise-equal Q-values, and one differing offset or a different length
// is not the same rows.
func TestSameRows(t *testing.T) {
	qv := testStore()
	rng := rand.New(rand.NewSource(1))
	churn(qv, rng, 2000)
	a, b := qv.NewResolvedSig(), qv.NewResolvedSig()
	same := 0
	for i := 0; i < 500; i++ {
		sa := randState(rng)
		sb := sa
		if rng.Intn(2) == 0 {
			sb = randState(rng)
		}
		qv.ResolveState(&sa, &a)
		qv.ResolveState(&sb, &b)
		if sa == sb && !SameRows(&a, &b) {
			t.Fatalf("pair %d: one state resolved to different rows", i)
		}
		if !SameRows(&a, &b) {
			continue
		}
		same++
		for act := 0; act < 16; act++ {
			if qa, qb := qv.QResolved(&a, act), qv.QResolved(&b, act); math.Float64bits(qa) != math.Float64bits(qb) {
				t.Fatalf("pair %d action %d: same rows read %v and %v", i, act, qa, qb)
			}
		}
	}
	if same == 0 || same == 500 {
		t.Fatalf("%d of 500 pairs on the same rows: the draw exercises one side only", same)
	}

	other := ResolvedSig{offs: append([]int32(nil), a.offs...)}
	other.offs[len(other.offs)-1]++
	if SameRows(&a, &other) {
		t.Error("signatures differing in one offset reported the same rows")
	}
	short := ResolvedSig{offs: a.offs[:len(a.offs)-1]}
	if SameRows(&a, &short) || SameRows(&short, &a) {
		t.Error("signatures of different lengths reported the same rows")
	}
}

// TestScanQMatchesQResolved pins the invariant Pythia.Train leans on: the
// scan buffer left behind by ArgmaxQResolved holds every action's
// Q-value, bitwise equal to a fresh QResolved on the same rows.
func TestScanQMatchesQResolved(t *testing.T) {
	for _, quant := range []float64{0, 1.0 / 256} {
		qv := testStore()
		qv.SetQuantization(quant)
		rng := rand.New(rand.NewSource(3))
		churn(qv, rng, 2000)
		rs := qv.NewResolvedSig()
		for i := 0; i < 200; i++ {
			st := randState(rng)
			qv.ResolveState(&st, &rs)
			qv.ArgmaxQResolved(&rs)
			for a := 0; a < 16; a++ {
				if got, want := qv.ScanQ(a), qv.QResolved(&rs, a); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("state %d action %d: ScanQ %v, QResolved %v", i, a, got, want)
				}
			}
		}
	}
}

// TestUpdateResolvedTargetMatchesUpdateResolved drives two stores through
// the same update stream — one through UpdateResolved, one through an
// explicit target plus UpdateResolvedTarget — and requires bitwise equal
// tables throughout.
func TestUpdateResolvedTargetMatchesUpdateResolved(t *testing.T) {
	a, b := testStore(), testStore()
	rng := rand.New(rand.NewSource(4))
	ra1, ra2 := a.NewResolvedSig(), a.NewResolvedSig()
	rb1, rb2 := b.NewResolvedSig(), b.NewResolvedSig()
	prev := randState(rng)
	for i := 0; i < 1000; i++ {
		st := randState(rng)
		act, nextAct := rng.Intn(16), rng.Intn(16)
		reward := float64(rng.Intn(35) - 14)

		a.ResolveState(&st, &ra1)
		a.ResolveState(&prev, &ra2)
		a.UpdateResolved(&ra1, act, reward, &ra2, nextAct, 0.1, 0.556)

		b.ResolveState(&st, &rb1)
		b.ResolveState(&prev, &rb2)
		b.UpdateResolvedTarget(&rb1, act, reward+0.556*b.QResolved(&rb2, nextAct), 0.1)

		prev = st
	}
	for vi := range a.vaults {
		for j, v := range a.vaults[vi].data {
			if math.Float64bits(v) != math.Float64bits(b.vaults[vi].data[j]) {
				t.Fatalf("vault %d entry %d: UpdateResolved %v, UpdateResolvedTarget %v",
					vi, j, v, b.vaults[vi].data[j])
			}
		}
	}
}
