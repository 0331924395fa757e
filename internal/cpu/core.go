// Package cpu implements the trace-driven core timing model and the
// multi-core simulation driver, mirroring the paper's methodology (§5):
// 4-wide out-of-order cores with a 256-entry ROB and 72-entry load queue,
// per-workload warmup then measurement, and trace replay for cores that
// finish early in multi-programmed runs.
//
// The hot loop is batched: cores consume records as column chunks
// (trace.Chunk) through trace.ChunkReader and fuse a whole batch per
// driver step (stepChunk), keeping clock and retirement state in
// registers instead of paying an interface call per record. The tests
// keep the record-at-a-time driver the kernel replaced (shim_test.go) as
// a reference it must match bit for bit — across chunk-boundary edge
// cases, replays, multi-core runs and randomly drawn systems.
package cpu

import (
	"context"
	"fmt"
	"math"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// CoreConfig sets the core timing parameters (Table 5 defaults).
type CoreConfig struct {
	// Width is the issue/retire width in instructions per cycle.
	Width int
	// ROB is the reorder-buffer size in instructions.
	ROB int
	// LQ is the load-queue size: the bound on in-flight loads.
	LQ int
}

// DefaultCoreConfig returns the paper's Skylake-like core.
func DefaultCoreConfig() CoreConfig { return CoreConfig{Width: 4, ROB: 256, LQ: 72} }

type inflightLoad struct {
	idx      int64 // instruction index at issue
	complete int64
}

// loadRing is a fixed-capacity FIFO of in-flight loads. The LQ limit
// guarantees occupancy never exceeds cfg.LQ, so the buffer is sized once
// at LQ entries and never grows; head pops are O(1) index moves. (The
// previous []inflightLoad head-pop reslice pinned the backing array and
// re-grew it on every wrap of the append cursor.)
type loadRing struct {
	buf  []inflightLoad
	head int
	n    int
}

func newLoadRing(capacity int) loadRing { return loadRing{buf: make([]inflightLoad, capacity)} }

// front returns the oldest in-flight load; valid only when n > 0.
func (r *loadRing) front() inflightLoad { return r.buf[r.head] }

func (r *loadRing) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *loadRing) push(v inflightLoad) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// Core executes one trace stream against the shared hierarchy.
type Core struct {
	id     int
	cfg    CoreConfig
	reader trace.ChunkReader
	hier   *cache.Hierarchy

	cycle    int64
	instret  int64
	records  int64
	issueRem int      // leftover issue slots in the current cycle
	inflight loadRing // FIFO of outstanding loads, capacity LQ
	replays  int

	// cur/pos is the column batch being consumed by the fused kernel.
	cur trace.Chunk
	pos int

	// measurement window
	measuring    bool
	startCycle   int64
	startInstret int64
	doneInstret  int64 // target measured instructions
	finalCycle   int64
	finished     bool
	statsSnap    cache.CoreStats

	// addrOffset separates per-core address spaces in multi-programmed runs.
	addrOffset uint64
}

// Cycle returns the core's local clock.
func (c *Core) Cycle() int64 { return c.cycle }

// Finished reports whether the core has retired its measured instructions.
func (c *Core) Finished() bool { return c.finished }

// IPC returns measured instructions per cycle; valid once finished.
func (c *Core) IPC() float64 {
	cycles := c.finalCycle - c.startCycle
	if cycles <= 0 {
		return 0
	}
	return float64(c.doneInstret) / float64(cycles)
}

// MeasuredInstructions returns the instruction count of the measurement
// window.
func (c *Core) MeasuredInstructions() int64 { return c.doneInstret }

// MeasuredCycles returns the cycle count of the measurement window; for
// still-running cores it reflects progress so far.
func (c *Core) MeasuredCycles() int64 {
	if c.finished {
		return c.finalCycle - c.startCycle
	}
	return c.cycle - c.startCycle
}

// Replays returns how many times the core wrapped its trace.
func (c *Core) Replays() int { return c.replays }

// Retired returns the total instructions the core has retired, warmup and
// replays included — the raw work the kernel performed, as opposed to
// MeasuredInstructions' measurement window. Throughput metrics
// (simulated-instructions/sec) are computed from this.
func (c *Core) Retired() int64 { return c.instret }

// nextBatch pulls the next column batch from the reader, replaying the
// trace once on a clean EOF (the paper's methodology for cores that
// finish early). Returning with an empty cur means the trace itself is
// empty; the caller spins the clock. A delivery failure aborts: the
// record sequence can no longer be trusted, so the simulation must fail
// rather than silently truncate or replay.
func (c *Core) nextBatch() error {
	ch, ok := c.reader.NextChunk()
	if !ok {
		if err := c.reader.Err(); err != nil {
			return fmt.Errorf("cpu: core %d: trace delivery: %w", c.id, err)
		}
		c.reader.Reset()
		c.replays++
		ch, ok = c.reader.NextChunk()
		if !ok {
			if err := c.reader.Err(); err != nil {
				return fmt.Errorf("cpu: core %d: trace replay: %w", c.id, err)
			}
			c.cur, c.pos = trace.Chunk{}, 0
			return nil
		}
	}
	c.cur, c.pos = ch, 0
	return nil
}

// stepChunk is the fused hot loop: it advances the core through the
// current column batch until the batch is exhausted, retired instructions
// reach instrLimit, or the local clock passes cycleCap (the scheduling
// bound capFor computes). Per record it performs exactly the arithmetic
// of the record-at-a-time shim — issue-width clocking (in closed form),
// load retirement, ROB/LQ stalls, one hierarchy access — in the same
// order, so the two paths are bit-identical (batch_test.go). The fusion
// wins come from keeping clock state in locals, indexing dense columns
// instead of an interface call per record, and O(1) ring pops.
func (c *Core) stepChunk(instrLimit, cycleCap int64) error {
	if c.pos >= c.cur.Len() {
		if err := c.nextBatch(); err != nil {
			return err
		}
		if c.cur.Len() == 0 {
			// Empty trace: spin the clock forward so the driver terminates,
			// one spin per driver step.
			c.cycle += 1000
			return nil
		}
	}

	var (
		cycle    = c.cycle
		instret  = c.instret
		issueRem = c.issueRem
		width    = c.cfg.Width
		rob      = int64(c.cfg.ROB)
		lq       = c.cfg.LQ
		hier     = c.hier
		id       = c.id
		addrOff  = c.addrOffset
	)
	// The refill division runs once per record on the issue-clock critical
	// path; for power-of-two widths (the Table 5 core is 4-wide) a shift
	// computes the identical quotient.
	widthShift := -1
	if width&(width-1) == 0 {
		for s := 0; s < 32; s++ {
			if 1<<s == width {
				widthShift = s
				break
			}
		}
	}
	// The load ring runs on locals too; ringLen never changes, so the wrap
	// arithmetic compiles to straight-line code.
	buf := c.inflight.buf
	head, m := c.inflight.head, c.inflight.n
	ringLen := len(buf)

	pcs := c.cur.PC
	n := len(pcs)
	// Columns are equal-length by the Chunk invariant; reslicing to n lets
	// the compiler drop the per-record bounds checks.
	addrs := c.cur.Addr[:n]
	gaps := c.cur.NonMem[:n]
	stores := c.cur.Store[:n]
	i := c.pos
	for i < n && instret < instrLimit && cycle <= cycleCap {
		// Issue the non-memory instructions plus the memory op at
		// Width/cycle. This is the closed form of the shim's refill loop:
		// identical integer sequence, no iteration (TestIssueClockClosedForm).
		k := int(gaps[i]) + 1
		instret += int64(k)
		if k <= issueRem {
			issueRem -= k
		} else {
			k -= issueRem
			var refills int
			if widthShift >= 0 {
				refills = (k + width - 1) >> widthShift
			} else {
				refills = (k + width - 1) / width
			}
			cycle += int64(refills)
			issueRem = refills*width - k
		}

		// Retire completed loads.
		for m > 0 && buf[head].complete <= cycle {
			head++
			if head == ringLen {
				head = 0
			}
			m--
		}
		// ROB limit: the core cannot run more than ROB instructions past
		// the oldest incomplete load. LQ limit follows. Both wait on the
		// oldest load exactly as the shim's waitOldest does.
		for (m > 0 && instret-buf[head].idx >= rob) || m >= lq {
			if f := buf[head]; f.complete > cycle {
				cycle = f.complete
				issueRem = width
			}
			head++
			if head == ringLen {
				head = 0
			}
			m--
		}

		done := hier.Access(id, pcs[i], addrs[i]+addrOff, stores[i], cycle)
		if !stores[i] && done > cycle {
			j := head + m
			if j >= ringLen {
				j -= ringLen
			}
			buf[j] = inflightLoad{idx: instret, complete: done}
			m++
		}
		i++
	}
	c.inflight.head, c.inflight.n = head, m
	c.records += int64(i - c.pos)
	c.cycle, c.instret, c.issueRem, c.pos = cycle, instret, issueRem, i
	return nil
}

// System drives one or more cores against a shared hierarchy.
type System struct {
	Cores []*Core
	Hier  *cache.Hierarchy
	cfg   SystemConfig
}

// SystemConfig controls a simulation run.
type SystemConfig struct {
	Core CoreConfig
	// WarmupInstructions per core before measurement starts.
	WarmupInstructions int64
	// SimInstructions measured per core.
	SimInstructions int64
}

// NewSystem builds cores over readers (one per core) and the hierarchy.
// Each reader's chunk size is its own: batch size is delivery
// granularity and never changes a result (batch_test.go).
func NewSystem(cfg SystemConfig, hier *cache.Hierarchy, readers []trace.ChunkReader) (*System, error) {
	if len(readers) != hier.Config().Cores {
		return nil, fmt.Errorf("cpu: %d readers for %d cores", len(readers), hier.Config().Cores)
	}
	if cfg.Core.Width <= 0 || cfg.Core.ROB <= 0 || cfg.Core.LQ <= 0 {
		return nil, fmt.Errorf("cpu: invalid core config %+v", cfg.Core)
	}
	s := &System{Hier: hier, cfg: cfg}
	for i, r := range readers {
		s.Cores = append(s.Cores, &Core{
			id:         i,
			cfg:        cfg.Core,
			reader:     r,
			hier:       hier,
			inflight:   newLoadRing(cfg.Core.LQ),
			addrOffset: uint64(i) << 56,
		})
	}
	return s, nil
}

// Run executes warmup then measurement. Warmup trains caches and
// prefetchers without counting statistics; measurement runs until every
// core retires SimInstructions, replaying traces as needed.
//
// Errors are values here, not panics: a trace-delivery failure on any core
// aborts the run with that core's error, and a canceled ctx aborts it at
// the next batch boundary with ctx.Err(). Either way the System is left in
// an undefined simulation state and must only be Closed, never re-Run.
//
// Cancellation granularity: the driver polls the context once per fused
// batch, so a single-core run observes cancellation at chunk boundaries
// (milliseconds of simulation at the default chunk size) and multi-core
// runs at scheduling-quantum boundaries, which are at most one chunk.
func (s *System) Run(ctx context.Context) error {
	done := ctx.Done()
	poll := func() error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		return nil
	}

	// Warmup: advance each core in lockstep until it retires the warmup
	// count. stepChunk stops on its own at the instruction limit, so a
	// core overshoots it by at most one record.
	warm := func(c *Core) bool { return c.instret < s.cfg.WarmupInstructions }
	for {
		c := s.nextCore(warm)
		if c == nil {
			break
		}
		if err := c.stepChunk(s.cfg.WarmupInstructions, s.capFor(c, warm)); err != nil {
			return err
		}
		if err := poll(); err != nil {
			return err
		}
	}

	// Measurement boundary.
	s.Hier.ResetStats()
	for _, c := range s.Cores {
		c.measuring = true
		c.startCycle = c.cycle
		c.startInstret = c.instret
	}

	// Measurement: every core keeps executing (replaying its trace) until
	// all cores have retired SimInstructions, so shared-resource contention
	// persists for stragglers, as in the paper. Each core's statistics are
	// snapshotted at the instant it crosses the finish line: stepChunk
	// returns exactly at the crossing record, so the snapshot sees the same
	// cycle and hierarchy state the record-at-a-time path would.
	all := func(*Core) bool { return true }
	unfinished := len(s.Cores)
	for unfinished > 0 {
		c := s.nextCore(all)
		limit := int64(math.MaxInt64)
		if !c.finished {
			limit = c.startInstret + s.cfg.SimInstructions
		}
		if err := c.stepChunk(limit, s.capFor(c, all)); err != nil {
			return err
		}
		if err := poll(); err != nil {
			return err
		}
		if !c.finished && c.instret-c.startInstret >= s.cfg.SimInstructions {
			c.finished = true
			c.finalCycle = c.cycle
			c.doneInstret = c.instret - c.startInstret
			c.statsSnap = s.Hier.CoreStats(c.id)
			unfinished--
		}
	}
	s.Hier.Flush()
	return nil
}

// capFor bounds how far core c may advance before the scheduler must
// re-evaluate. nextCore picks the lowest-indexed core among those with the
// minimum clock; c keeps that property exactly while its clock stays
// strictly below every lower-indexed eligible core and at or below every
// higher-indexed one. Within the bound, c can burn through a whole batch
// without consulting the others — which is what makes chunk fusion legal
// in multi-programmed runs: the cross-core record interleaving is
// identical to stepping one record at a time (TestBatchedMatchesShimMultiCore).
// Only c's own clock moves while it runs, so the bound stays valid for the
// whole batch. With a single core the bound is +inf and the kernel runs
// full chunks.
func (s *System) capFor(c *Core, eligible func(*Core) bool) int64 {
	bound := int64(math.MaxInt64)
	for _, o := range s.Cores {
		if o == c || !eligible(o) {
			continue
		}
		b := o.cycle
		if o.id < c.id {
			b--
		}
		if b < bound {
			bound = b
		}
	}
	return bound
}

// Stats returns a core's memory statistics captured when it finished its
// measurement window.
func (c *Core) Stats() cache.CoreStats { return c.statsSnap }

// Close closes every core's reader: streaming readers (internal/stream)
// hold a producer goroutine and possibly an open file until closed.
// Close is safe to call after Run and more than once; the first reader
// error is returned.
func (s *System) Close() error {
	var first error
	for _, c := range s.Cores {
		if err := c.reader.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nextCore returns the eligible core with the smallest local clock, or nil
// when none is eligible. Advancing the globally-oldest core keeps shared
// resources (LLC, DRAM) ordered across cores.
func (s *System) nextCore(eligible func(*Core) bool) *Core {
	var best *Core
	for _, c := range s.Cores {
		if !eligible(c) {
			continue
		}
		if best == nil || c.cycle < best.cycle {
			best = c
		}
	}
	return best
}
