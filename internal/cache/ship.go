package cache

import "math/bits"

// SHiP (Signature-based Hit Predictor, Wu et al., MICRO 2011) replacement,
// used at the LLC per the paper's Table 5. Lines are managed with 2-bit
// re-reference prediction values (RRPV); a signature history counter table
// (SHCT) indexed by a PC signature predicts whether a fill will be re-used
// and chooses its insertion RRPV.

const (
	shipMaxRRPV   = 3
	shipSHCTBits  = 14
	shipSHCTSize  = 1 << shipSHCTBits
	shipCtrMax    = 7
	shipInsertFar = shipMaxRRPV     // predicted dead: insert at max RRPV
	shipInsertMid = shipMaxRRPV - 1 // default insertion
)

// An RRPV word holds a set's 2-bit RRPVs, way w's at bits 2w and 2w+1, so
// one uint32 covers maxWays ways. Fields of ways the set does not have
// stay 0. SHiP and DRRIP both keep one word per set.
const rrpvLow = 0x55555555 // the low bit of every field

// rrpvFields returns the low bits of a ways-way set's fields.
func rrpvFields(ways int) uint32 { return uint32(1<<(2*uint(ways))-1) & rrpvLow }

// setRRPV returns word with way's RRPV set to r.
func setRRPV(word uint32, way int, r uint32) uint32 {
	sh := 2 * uint(way)
	return word&^(3<<sh) | r<<sh
}

// rripVictim returns the lowest way holding the set's highest RRPV and
// ages the set, as the reference algorithm does by rescanning the set and
// aging every way by one until some way reaches the maximum RRPV 3: every
// field gains the gap between the highest RRPV and 3 in one add, which
// carries out of no field. fields is rrpvFields of the set's ways.
func rripVictim(word *uint32, fields uint32) int {
	r := *word
	high := r >> 1 & rrpvLow // fields at 2 or 3
	at, gap := high&r, uint32(0)
	switch {
	case at != 0:
	case high != 0:
		at, gap = high, 1
	case r != 0: // no field is above 1, so r holds the fields at 1
		at, gap = r, 2
	default:
		at, gap = 1, 3
	}
	*word = r + gap*fields
	return bits.TrailingZeros32(at) >> 1
}

// shipSet is one set's SHiP state in 8 bytes, so a fill or a victim
// choice touches one cache line of it: the set's RRPV word and two masks
// with a bit per way, outcome (the line saw a hit during its residency)
// and occupied (a fill put a line in the way and no eviction has taken it
// out since).
type shipSet struct {
	rrpv              uint32
	outcome, occupied uint16
}

type ship struct {
	ways   int
	fields uint32 // rrpvFields(ways)
	sets   []shipSet
	sig    []uint16 // the filling PC's signature, per line
	shct   []uint8
}

// NewSHiP returns a SHiP replacement policy.
func NewSHiP(sets, ways int) Replacement { return recycleSHiP(sets, ways, nil) }

// recycleSHiP builds a SHiP policy on old's arrays when old is a SHiP
// policy of the same geometry.
func recycleSHiP(sets, ways int, old Replacement) Replacement {
	o, ok := old.(*ship)
	if !ok {
		o = &ship{}
	}
	s := &ship{
		ways:   ways,
		fields: rrpvFields(ways),
		sets:   reuse(&o.sets, sets),
		sig:    reuse(&o.sig, sets*ways),
		shct:   reuse(&o.shct, shipSHCTSize),
	}
	for i := range s.shct {
		s.shct[i] = 1 // weakly re-use-predicted
	}
	return s
}

func shipSig(pc uint64) uint16 {
	return uint16((pc ^ pc>>shipSHCTBits ^ pc>>(2*shipSHCTBits)) & (shipSHCTSize - 1))
}

// Hit implements Replacement.
func (s *ship) Hit(set, way int, pc uint64) {
	st := &s.sets[set]
	st.rrpv &^= 3 << (2 * uint(way))
	if bit := uint16(1) << uint(way); st.outcome&bit == 0 {
		st.outcome |= bit
		if c := &s.shct[s.sig[set*s.ways+way]]; *c < shipCtrMax {
			*c++
		}
	}
}

// Fill implements Replacement. Prefetches are inserted with distant
// re-reference prediction to bound pollution, as common SHiP+prefetch
// setups do.
func (s *ship) Fill(set, way int, pc uint64, prefetch bool) {
	sig := shipSig(pc)
	s.sig[set*s.ways+way] = sig
	r := uint32(shipInsertMid)
	if prefetch || s.shct[sig] == 0 {
		r = shipInsertFar
	}
	st := &s.sets[set]
	bit := uint16(1) << uint(way)
	st.outcome &^= bit
	st.occupied |= bit
	st.rrpv = setRRPV(st.rrpv, way, r)
}

// Victim implements Replacement (see rripVictim).
func (s *ship) Victim(set int) int { return rripVictim(&s.sets[set].rrpv, s.fields) }

// Evict implements Replacement.
func (s *ship) Evict(set, way int) {
	st := &s.sets[set]
	bit := uint16(1) << uint(way)
	if st.occupied&^st.outcome&bit != 0 {
		if c := &s.shct[s.sig[set*s.ways+way]]; *c > 0 {
			*c--
		}
	}
	st.occupied &^= bit
}
