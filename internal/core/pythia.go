package core

import (
	"math/rand"

	"pythia/internal/mem"
	"pythia/internal/prefetch"
)

// Stats counts Pythia's decisions and reward assignments, used by tests and
// the Fig. 13 case study.
type Stats struct {
	Demands       int64
	PrefetchTaken int64
	NoPrefetch    int64
	OutOfPage     int64
	Explored      int64

	RewardAT, RewardAL, RewardCL int64
	RewardINHigh, RewardINLow    int64
	RewardNPHigh, RewardNPLow    int64

	QUpdates int64

	// ActionCounts tallies how often each action index was selected.
	ActionCounts []int64
}

// Pythia is the RL-based prefetcher (Algorithm 1). It implements
// prefetch.Prefetcher and is driven by the cache hierarchy at the L2, as in
// the paper's methodology.
type Pythia struct {
	cfg     Config
	sys     prefetch.System
	qv      *QVStore
	eq      *EQ
	tracker *Tracker
	rng     *rand.Rand
	stats   Stats

	// st, sigRS and outBuf are reused across Train calls so the hot path
	// is allocation-free: the EQ copies signatures on insert, and callers
	// consume the returned candidate slice before the next Train.
	st     State
	sigRS  ResolvedSig
	outBuf []uint64

	// qTrace optionally records per-update Q-values of a watched feature
	// value (Fig. 13).
	watch *QWatch
}

// New builds a Pythia agent. sys supplies the bandwidth feedback; pass
// prefetch.NilSystem() for a standalone agent.
func New(cfg Config, sys prefetch.System) (*Pythia, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sys == nil {
		sys = prefetch.NilSystem()
	}
	p := &Pythia{
		cfg:     cfg,
		sys:     sys,
		qv:      NewQVStore(cfg.Features, cfg.FeatureDim, len(cfg.Actions), cfg.PlanesPerVault, cfg.InitQ(), uint64(cfg.Seed)),
		eq:      NewEQ(cfg.EQSize),
		tracker: NewTracker(cfg.TrackerPages),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.FixedPoint {
		// Q8.8: 16-bit entries with 8 fraction bits, matching Table 4's
		// Q-value width.
		p.qv.SetQuantization(1.0 / 256)
	}
	p.sigRS = p.qv.NewResolvedSig()
	p.outBuf = make([]uint64, 0, cfg.MaxDegree+1)
	p.stats.ActionCounts = make([]int64, len(cfg.Actions))
	return p, nil
}

// MustNew is New but panics on config errors; for tests and tables.
func MustNew(cfg Config, sys prefetch.System) *Pythia {
	p, err := New(cfg, sys)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Pythia) Name() string { return p.cfg.Name }

// Config returns the agent's configuration.
func (p *Pythia) Config() Config { return p.cfg }

// Stats returns a copy of the decision statistics.
func (p *Pythia) Stats() Stats {
	s := p.stats
	s.ActionCounts = append([]int64(nil), p.stats.ActionCounts...)
	return s
}

// QVStore exposes the Q-value store for introspection (case studies,
// tests).
func (p *Pythia) QVStore() *QVStore { return p.qv }

// highBW reports whether the bandwidth monitor is above the configured
// threshold, selecting the High reward variants.
func (p *Pythia) highBW() bool {
	return p.sys.BandwidthUtil() >= p.cfg.HighBWThreshold
}

// Train implements prefetch.Prefetcher: Algorithm 1's Train_and_Predict,
// called for every demand request observed at the L2.
func (p *Pythia) Train(a prefetch.Access) []uint64 {
	p.stats.Demands++
	r := p.cfg.Rewards

	// (1) Reward in-flight actions whose prefetched line is now demanded.
	if matched, filled := p.eq.OnDemand(a.Line, r.AT, r.AL); matched {
		if filled {
			p.stats.RewardAT++
		} else {
			p.stats.RewardAL++
		}
	}

	// (2) Extract the state vector and resolve its QVStore row offsets
	// once; every lookup, search and update below reuses them.
	p.tracker.Observe(a.PC, a.Line, &p.st)
	sig := &p.sigRS
	p.qv.ResolveState(&p.st, sig)

	// (3) ε-greedy action selection. An exploit-path scan leaves every
	// action's Q-value for sig's rows in the store's scan buffer; step (6)
	// reuses it when the SARSA target needs those same rows.
	var action int
	var q float64
	scanned := false
	if p.rng.Float64() <= p.cfg.Epsilon {
		action = p.rng.Intn(len(p.cfg.Actions))
		q = p.qv.QResolved(sig, action)
		p.stats.Explored++
	} else {
		action, q = p.qv.ArgmaxQResolved(sig)
		scanned = true
	}
	p.stats.ActionCounts[action]++
	offset := p.cfg.Actions[action]

	// (4) Generate the prefetch and (5) create the EQ entry.
	out := p.outBuf[:0]
	var evicted *Evicted
	switch {
	case offset == 0:
		p.stats.NoPrefetch++
		rw := r.NPLow
		if p.highBW() {
			rw = r.NPHigh
			p.stats.RewardNPHigh++
		} else {
			p.stats.RewardNPLow++
		}
		evicted = p.eq.InsertResolved(sig, action, 0, false, rw, true)
	default:
		cand := uint64(int64(a.Line) + int64(offset))
		if !mem.SamePage(a.Line, cand) {
			p.stats.OutOfPage++
			p.stats.RewardCL++
			evicted = p.eq.InsertResolved(sig, action, 0, false, r.CL, true)
		} else {
			p.stats.PrefetchTaken++
			out = append(out, cand)
			// Confidence-based dynamic degree: high Q-values issue extra
			// prefetches at consecutive multiples of the offset; only the
			// first address is tracked in the EQ, so learning is unchanged.
			deg := p.dynDegree(q, offset)
			for extra := 2; extra <= deg; extra++ {
				next := uint64(int64(a.Line) + int64(offset)*int64(extra))
				if !mem.SamePage(a.Line, next) {
					break
				}
				out = append(out, next)
			}
			evicted = p.eq.InsertResolved(sig, action, cand, true, 0, false)
		}
	}
	p.outBuf = out

	// (6) SARSA update with the evicted entry.
	if evicted != nil {
		reward := evicted.Reward
		if !evicted.HadReward {
			if p.highBW() {
				reward = r.INHigh
				p.stats.RewardINHigh++
			} else {
				reward = r.INLow
				p.stats.RewardINLow++
			}
		}
		if sig2, a2, ok := p.eq.HeadResolved(); ok {
			if scanned && SameRows(sig2, sig) {
				// S2 resolves to the rows the action-selection scan just
				// walked, and no update has run since, so the target's
				// Q(S2, A2) comes off the scan buffer bitwise (ScanQ)
				// instead of re-walking the tables. On repetitive demand
				// streams — a striding PC re-observing the same state —
				// this folds most SARSA targets into the selection scan.
				target := reward + p.cfg.Gamma*p.qv.ScanQ(a2)
				p.qv.UpdateResolvedTarget(evicted.rs, evicted.Action, target, p.cfg.Alpha)
			} else {
				p.qv.UpdateResolved(evicted.rs, evicted.Action, reward, sig2, a2, p.cfg.Alpha, p.cfg.Gamma)
			}
			p.stats.QUpdates++
			if p.watch != nil {
				p.watch.observe(p.qv, evicted.Sig)
			}
		}
	}
	return out
}

// dynDegree returns the prefetch degree for a chosen action's Q-value (1 =
// no extra prefetches; the caller issues offset multiples [2..deg]): Q at
// or above ~60% of the theoretical maximum R_AT/(1−γ) earns the full
// configured degree, lower confidence less. Degree applies only to
// near-stride offsets (multiples of a far offset are not part of the
// learned pattern, e.g. GemsFDTD's one-shot +23), and collapses to 1 under
// high bandwidth pressure — the coverage-vs-accuracy trade the paper's
// §6.3.3 describes.
func (p *Pythia) dynDegree(q float64, offset int) int {
	if !p.cfg.DynDegree || p.cfg.MaxDegree <= 1 {
		return 1
	}
	if offset > 8 || offset < -8 {
		return 1
	}
	if p.highBW() {
		return 1
	}
	qMax := p.cfg.Rewards.AT / (1 - p.cfg.Gamma)
	if qMax <= 0 || q <= 0 {
		return 1
	}
	frac := q / qMax
	switch {
	case frac >= 0.60:
		return p.cfg.MaxDegree
	case frac >= 0.33:
		return (p.cfg.MaxDegree + 1) / 2
	}
	return 1
}

// Fill implements prefetch.Prefetcher: marks the matching EQ entry filled
// (Algorithm 1 Prefetch_Fill).
func (p *Pythia) Fill(line uint64) {
	p.eq.OnFill(line)
}

// QWatch records Q-value trajectories for a specific watched vault/feature
// value as updates happen — the instrument behind Fig. 13's Q-value curves.
type QWatch struct {
	vault   int
	featVal uint64
	// Series holds, per recorded update, the Q-values of every action.
	Series [][]float64
	// Every records one sample per N matching updates.
	Every int
	count int
}

// WatchFeature starts recording Q-values of vault `vault` whenever a
// Q-update touches the given feature value, sampling every `every` matches.
func (p *Pythia) WatchFeature(vault int, featVal uint64, every int) *QWatch {
	if every <= 0 {
		every = 1
	}
	p.watch = &QWatch{vault: vault, featVal: featVal, Every: every}
	return p.watch
}

func (w *QWatch) observe(qv *QVStore, sig StateSig) {
	if w.vault >= len(sig) || sig[w.vault] != w.featVal {
		return
	}
	w.count++
	if w.count%w.Every != 0 {
		return
	}
	row := make([]float64, qv.numActions)
	for a := 0; a < qv.numActions; a++ {
		row[a] = qv.VaultQ(w.vault, w.featVal, a)
	}
	w.Series = append(w.Series, row)
}

// NewCPHW builds the hardware-context contextual-bandit baseline of the
// paper's §4.5 / Appendix B.4: the same engine with γ=0 (no long-term
// credit), a single PC+Delta context feature, bandwidth-oblivious rewards,
// and — CP's defining weakness — an unpruned action space. CP acts on full
// cacheline addresses; within this in-page framework that corresponds to
// every offset in [-63, 63], which inflates training time and storage
// exactly as §4.5 argues.
func NewCPHW(sys prefetch.System) *Pythia {
	c := BasicConfig()
	c.Name = "cp-hw"
	c.Features = []Feature{FeaturePCDelta}
	c.Gamma = 0 // myopic: no long-term credit
	c.Actions = nil
	for d := -63; d <= 63; d++ {
		c.Actions = append(c.Actions, d)
	}
	c.DynDegree = false
	// Alpha/epsilon keep the same horizon scaling as basic Pythia so the
	// comparison isolates the formulation, not the learning speed.
	c.Rewards = Rewards{AT: 20, AL: 12, CL: -12, INHigh: -8, INLow: -8, NPHigh: -2, NPLow: -2}
	return MustNew(c, sys)
}
