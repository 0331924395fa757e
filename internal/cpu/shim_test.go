package cpu

import (
	"context"

	"pythia/internal/trace"
)

// This file is the record-at-a-time shim: the simulation driver as it
// existed before the fused chunk kernel (core.go stepChunk), kept as the
// reference the kernel is checked against (batch_test.go,
// oracle_test.go) and as the baseline of the kernel benchmarks
// (kernel_bench_test.go). It reads each core's records straight from the
// test's []Record, so its replay logic shares nothing with nextBatch.

// step consumes one trace record, advancing the core's local clock. pos
// is the core's cursor into recs; at the end of recs the trace replays
// from its first record.
func (c *Core) step(recs []trace.Record, pos *int) {
	if *pos == len(recs) {
		*pos = 0
		c.replays++
		if len(recs) == 0 {
			// Empty trace: spin the clock forward so the driver terminates.
			c.cycle += 1000
			return
		}
	}
	rec := recs[*pos]
	*pos++
	c.records++

	// Issue the non-memory instructions plus the memory op at Width/cycle.
	n := int(rec.NonMem) + 1
	c.instret += int64(n)
	for n > 0 {
		if c.issueRem == 0 {
			c.cycle++
			c.issueRem = c.cfg.Width
		}
		take := n
		if take > c.issueRem {
			take = c.issueRem
		}
		c.issueRem -= take
		n -= take
	}

	// Retire completed loads.
	for c.inflight.n > 0 && c.inflight.front().complete <= c.cycle {
		c.inflight.pop()
	}
	// ROB limit: the core cannot run more than ROB instructions past the
	// oldest incomplete load.
	for c.inflight.n > 0 && c.instret-c.inflight.front().idx >= int64(c.cfg.ROB) {
		c.waitOldest()
	}
	// LQ limit.
	for c.inflight.n >= c.cfg.LQ {
		c.waitOldest()
	}

	done := c.hier.Access(c.id, rec.PC, rec.Addr+c.addrOffset, rec.Store, c.cycle)
	if !rec.Store && done > c.cycle {
		c.inflight.push(inflightLoad{idx: c.instret, complete: done})
	}
}

// waitOldest advances the clock to the oldest in-flight load's completion.
func (c *Core) waitOldest() {
	if c.inflight.n == 0 {
		return
	}
	f := c.inflight.front()
	if f.complete > c.cycle {
		c.cycle = f.complete
		c.issueRem = c.cfg.Width
	}
	c.inflight.pop()
}

// cancelCheckSteps is how many shim driver steps elapse between context
// checks on the record-at-a-time path. Each step retires at least one
// instruction (typically several), so cancellation lands within a few
// thousand simulated records without putting a channel poll on the
// per-record loop. The fused path does not use this: it polls once per
// batch, at chunk boundaries (see Run in core.go).
const cancelCheckSteps = 1 << 12

// runShim is the record-at-a-time driver: Run as it existed before chunk
// fusion, replaying recs[i] on core i (the cores' readers go unread).
// Its observable behavior — every simulation statistic, bit for bit —
// must match the fused driver; batch_test.go and oracle_test.go hold the
// two against each other.
func (s *System) runShim(ctx context.Context, recs [][]trace.Record) error {
	pos := make([]int, len(s.Cores))
	done := ctx.Done()
	steps := 0
	canceled := func() error {
		steps++
		if steps&(cancelCheckSteps-1) == 0 && done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		return nil
	}

	// Warmup: run each core in lockstep until it retires the warmup count.
	for {
		c := s.nextCore(func(c *Core) bool { return c.instret < s.cfg.WarmupInstructions })
		if c == nil {
			break
		}
		c.step(recs[c.id], &pos[c.id])
		if err := canceled(); err != nil {
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
	// snapshotted at the instant it crosses the finish line.
	unfinished := len(s.Cores)
	for unfinished > 0 {
		c := s.nextCore(func(*Core) bool { return true })
		c.step(recs[c.id], &pos[c.id])
		if err := canceled(); err != nil {
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
