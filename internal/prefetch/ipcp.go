package prefetch

// IPCP implements the Instruction Pointer Classifier-based Prefetcher
// [Pakalapati & Panda, ISCA 2020], winner of DPC3: each load IP is
// classified as constant-stride (CS), complex-pattern (CPLX), or
// global-stream (GS) and prefetched with a class-specific engine.

// IPCPConfig tunes IPCP.
type IPCPConfig struct {
	// IPTableSize is the per-IP classifier table size (power of two).
	IPTableSize int
	// CSDegree is the constant-stride prefetch degree.
	CSDegree int
	// GSDepth is the stream depth when the global-stream class fires.
	GSDepth int
}

// DefaultIPCPConfig returns a DPC3-like configuration.
func DefaultIPCPConfig() IPCPConfig {
	return IPCPConfig{IPTableSize: 1024, CSDegree: 4, GSDepth: 6}
}

const (
	ipcpClassNone = iota
	ipcpClassCS
	ipcpClassCPLX
	ipcpClassGS
)

type ipcpEntry struct {
	tag      uint64
	lastLine uint64
	stride   int64
	conf     int8
	class    int8
	sig      uint16
	valid    bool
}

// IPCP is the IP-classifier prefetcher.
type IPCP struct {
	cfg  IPCPConfig
	ipt  []ipcpEntry
	cplx [4096]struct {
		delta int16
		conf  int8
	}
	// global stream detector
	gsLast uint64
	gsRun  int
	gsDir  int64
	buf    []uint64
}

// NewIPCP builds an IPCP instance.
func NewIPCP(cfg IPCPConfig) *IPCP {
	if cfg.IPTableSize <= 0 || cfg.IPTableSize&(cfg.IPTableSize-1) != 0 {
		panic("prefetch: IPCP table size must be a power of two")
	}
	return &IPCP{cfg: cfg, ipt: make([]ipcpEntry, cfg.IPTableSize)}
}

// Name implements Prefetcher.
func (p *IPCP) Name() string { return "ipcp" }

// Train implements Prefetcher.
func (p *IPCP) Train(a Access) []uint64 {
	e := &p.ipt[(a.PC>>2)&uint64(p.cfg.IPTableSize-1)]
	if !e.valid || e.tag != a.PC {
		*e = ipcpEntry{tag: a.PC, lastLine: a.Line, valid: true}
		return nil
	}
	delta := int64(a.Line) - int64(e.lastLine)
	e.lastLine = a.Line

	// Global stream detection (any-IP monotonic run).
	gsDelta := int64(a.Line) - int64(p.gsLast)
	p.gsLast = a.Line
	if gsDelta == 1 || gsDelta == -1 {
		if p.gsDir == gsDelta {
			p.gsRun++
		} else {
			p.gsDir, p.gsRun = gsDelta, 1
		}
	} else if gsDelta != 0 {
		p.gsRun = 0
	}

	if delta == 0 {
		return nil
	}

	// Classify: constant stride first.
	if delta == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = delta
		}
	}

	// CPLX: delta signature -> next delta correlation.
	sigIdx := int(e.sig) & 4095
	c := &p.cplx[sigIdx]
	if int64(c.delta) == delta {
		if c.conf < 3 {
			c.conf++
		}
	} else if c.conf > 0 {
		c.conf--
	} else {
		c.delta = int16(delta)
		c.conf = 1
	}
	e.sig = uint16((int(e.sig)<<3 ^ int(delta&0x3f)) & 4095)

	switch {
	case e.conf >= 2:
		e.class = ipcpClassCS
	case p.gsRun >= 4:
		e.class = ipcpClassGS
	case c.conf >= 2:
		e.class = ipcpClassCPLX
	default:
		e.class = ipcpClassNone
	}

	out := p.buf[:0]
	switch e.class {
	case ipcpClassCS:
		next := a.Line
		for i := 0; i < p.cfg.CSDegree; i++ {
			next = uint64(int64(next) + e.stride)
			out = append(out, next)
		}
	case ipcpClassGS:
		for i := 1; i <= p.cfg.GSDepth; i++ {
			out = append(out, uint64(int64(a.Line)+int64(i)*p.gsDir))
		}
	case ipcpClassCPLX:
		// Walk the complex-delta chain a short distance.
		sig := e.sig
		line := a.Line
		for i := 0; i < 3; i++ {
			cc := p.cplx[int(sig)&4095]
			if cc.conf < 2 || cc.delta == 0 {
				break
			}
			line = uint64(int64(line) + int64(cc.delta))
			out = append(out, line)
			sig = uint16((int(sig)<<3 ^ int(int64(cc.delta)&0x3f)) & 4095)
		}
	}
	p.buf = out
	if len(out) == 0 {
		return nil
	}
	return clampToPage(a.Line, out)
}

// Fill implements Prefetcher.
func (p *IPCP) Fill(uint64) {}
