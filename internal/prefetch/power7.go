package prefetch

// Power7 models the IBM POWER7 adaptive prefetcher [Jiménez et al., TOPC
// 2014], the comparison point of the paper's Appendix B.5: a stream
// prefetcher whose depth is tuned at runtime by a feedback controller that
// watches prefetch usefulness, plus an optional stride engine. Unlike
// Pythia it adapts a single aggressiveness knob rather than learning a
// policy over program features.

// Power7Config tunes the adaptive controller.
type Power7Config struct {
	// Depths is the depth ladder the controller moves along.
	Depths []int
	// Interval is the number of observed accesses between adaptations.
	Interval int
	// UpThreshold / DownThreshold are usefulness ratios that trigger
	// depth increase / decrease.
	UpThreshold, DownThreshold float64
	// Window is the usefulness tracking window.
	Window int
}

// DefaultPower7Config returns a POWER7-like ladder.
func DefaultPower7Config() Power7Config {
	return Power7Config{
		Depths:        []int{0, 2, 4, 6, 8, 16, 24},
		Interval:      2048,
		UpThreshold:   0.55,
		DownThreshold: 0.30,
		Window:        512,
	}
}

// Power7 is the adaptive stream+stride prefetcher.
type Power7 struct {
	cfg      Power7Config
	streamer *Streamer
	stride   *Stride
	level    int
	window   *recentSet
	seen     int
	useful   int
	issued   int
	buf      []uint64
}

// NewPower7 builds the adaptive prefetcher.
func NewPower7(cfg Power7Config) *Power7 {
	if len(cfg.Depths) == 0 {
		cfg = DefaultPower7Config()
	}
	p := &Power7{
		cfg:      cfg,
		streamer: NewStreamer(64, cfg.Depths[len(cfg.Depths)/2]),
		stride:   NewStride(256, 2),
		level:    len(cfg.Depths) / 2,
	}
	p.window = newRecentSet(cfg.Window, nil)
	return p
}

// Name implements Prefetcher.
func (p *Power7) Name() string { return "power7" }

// Depth returns the current stream depth (for tests).
func (p *Power7) Depth() int { return p.cfg.Depths[p.level] }

// Train implements Prefetcher.
func (p *Power7) Train(a Access) []uint64 {
	if p.window.demand(a.Line) {
		p.useful++
	}
	p.seen++
	if p.seen >= p.cfg.Interval {
		p.adapt()
	}

	out := append(p.buf[:0], p.streamer.Train(a)...)
	out = append(out, p.stride.Train(a)...)
	p.buf = out
	for _, l := range out {
		p.window.add(l)
	}
	p.issued += len(out)
	return out
}

// adapt moves the depth ladder based on the usefulness ratio of the last
// interval.
func (p *Power7) adapt() {
	if p.issued > 32 {
		ratio := float64(p.useful) / float64(p.issued)
		if ratio >= p.cfg.UpThreshold && p.level < len(p.cfg.Depths)-1 {
			p.level++
		} else if ratio <= p.cfg.DownThreshold && p.level > 0 {
			p.level--
		}
		p.streamer.SetDepth(p.cfg.Depths[p.level])
	}
	p.seen, p.useful, p.issued = 0, 0, 0
}

// Fill implements Prefetcher.
func (p *Power7) Fill(uint64) {}
