package cache

// DRRIP (Dynamic Re-Reference Interval Prediction, Jaleel et al., ISCA
// 2010) replacement: set-dueling between SRRIP (insert at distant RRPV)
// and BRRIP (insert at max RRPV with occasional promotion), with a policy
// selector counter picking the winner for follower sets. Provided as an
// alternative LLC policy to SHiP for replacement-sensitivity studies.

const (
	drripMaxRRPV   = 3
	drripPSELMax   = 1023
	drripBRRIPProb = 32 // 1-in-N BRRIP insertions at distant (not max) RRPV
)

type drrip struct {
	sets, ways int
	fields     uint32   // rrpvFields(ways)
	rrpv       []uint32 // one RRPV word per set (see rrpvLow)
	psel       int
	counter    int
	// Leader sets: low bits pick SRRIP leaders and BRRIP leaders.
	leaderMask int
}

// NewDRRIP returns a DRRIP replacement policy.
func NewDRRIP(sets, ways int) Replacement { return recycleDRRIP(sets, ways, nil) }

// recycleDRRIP builds a DRRIP policy on old's RRPV array when old is a
// DRRIP policy of the same geometry.
func recycleDRRIP(sets, ways int, old Replacement) Replacement {
	o, ok := old.(*drrip)
	if !ok {
		o = &drrip{}
	}
	return &drrip{
		sets:       sets,
		ways:       ways,
		fields:     rrpvFields(ways),
		rrpv:       reuse(&o.rrpv, sets),
		psel:       drripPSELMax / 2,
		leaderMask: 31,
	}
}

// setKind classifies a set: 0 = SRRIP leader, 1 = BRRIP leader, 2 = follower.
func (d *drrip) setKind(set int) int {
	switch set & d.leaderMask {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 2
	}
}

// Hit implements Replacement.
func (d *drrip) Hit(set, way int, pc uint64) {
	d.rrpv[set] &^= 3 << (2 * uint(way))
}

// Fill implements Replacement.
func (d *drrip) Fill(set, way int, pc uint64, prefetch bool) {
	useBRRIP := false
	switch d.setKind(set) {
	case 0: // SRRIP leader: a miss here charges SRRIP
		if d.psel > 0 {
			d.psel--
		}
	case 1: // BRRIP leader
		useBRRIP = true
		if d.psel < drripPSELMax {
			d.psel++
		}
	default:
		useBRRIP = d.psel < drripPSELMax/2
	}
	r := uint32(drripMaxRRPV - 1) // SRRIP insertion
	if useBRRIP {
		r = drripMaxRRPV
		d.counter++
		if d.counter%drripBRRIPProb == 0 {
			r = drripMaxRRPV - 1
		}
	}
	if prefetch {
		r = drripMaxRRPV
	}
	d.rrpv[set] = setRRPV(d.rrpv[set], way, r)
}

// Victim implements Replacement (see rripVictim).
func (d *drrip) Victim(set int) int { return rripVictim(&d.rrpv[set], d.fields) }

// Evict implements Replacement.
func (d *drrip) Evict(set, way int) {}
