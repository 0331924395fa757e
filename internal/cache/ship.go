package cache

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

type shipLine struct {
	rrpv     uint8
	sig      uint16
	outcome  bool // saw a hit during residency
	occupied bool
}

type ship struct {
	ways  int
	lines []shipLine
	shct  []uint8
}

// NewSHiP returns a SHiP replacement policy.
func NewSHiP(sets, ways int) Replacement { return recycleSHiP(sets, ways, nil) }

// recycleSHiP builds a SHiP policy on old's line and SHCT arrays when old
// is a SHiP policy of the same geometry.
func recycleSHiP(sets, ways int, old Replacement) Replacement {
	o, ok := old.(*ship)
	if !ok {
		o = &ship{}
	}
	s := &ship{
		ways:  ways,
		lines: reuse(&o.lines, sets*ways),
		shct:  reuse(&o.shct, shipSHCTSize),
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
	l := &s.lines[set*s.ways+way]
	l.rrpv = 0
	if !l.outcome {
		l.outcome = true
		if s.shct[l.sig] < shipCtrMax {
			s.shct[l.sig]++
		}
	}
}

// Fill implements Replacement.
func (s *ship) Fill(set, way int, pc uint64, prefetch bool) {
	sig := shipSig(pc)
	l := &s.lines[set*s.ways+way]
	l.sig = sig
	l.outcome = false
	l.occupied = true
	if s.shct[sig] == 0 {
		l.rrpv = shipInsertFar
	} else {
		l.rrpv = shipInsertMid
	}
	if prefetch {
		// Prefetches are inserted with distant re-reference prediction to
		// bound pollution, as common SHiP+prefetch setups do.
		l.rrpv = shipInsertFar
	}
}

// Victim implements Replacement. The reference algorithm rescans the set,
// aging every line by one, until some way reaches max RRPV; that selects
// the lowest-indexed way with the maximal RRPV and ages everyone by
// (max - maxRRPV) rounds. The closed form below computes exactly that in a
// single scan plus one conditional aging pass.
func (s *ship) Victim(set int) int {
	base := set * s.ways
	ls := s.lines[base : base+s.ways]
	victim, maxR := 0, ls[0].rrpv
	for w := 1; w < len(ls); w++ {
		if r := ls[w].rrpv; r > maxR {
			victim, maxR = w, r
		}
	}
	if age := shipMaxRRPV - maxR; age > 0 {
		for w := range ls {
			ls[w].rrpv += age
		}
	}
	return victim
}

// Evict implements Replacement.
func (s *ship) Evict(set, way int) {
	l := &s.lines[set*s.ways+way]
	if l.occupied && !l.outcome {
		if s.shct[l.sig] > 0 {
			s.shct[l.sig]--
		}
	}
	l.occupied = false
}
