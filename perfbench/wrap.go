package main

import (
	"time"

	"pythia/internal/core"
	"pythia/internal/harness"
	"pythia/internal/prefetch"
)

// busy accumulates the time spent in, and the calls made to, one layer.
type busy struct {
	ns            int64
	trains, fills int64
}

// pfTimes is one operation's prefetcher time, split between Pythia (the
// core layer) and every other prefetcher (the prefetch layer). Each core's
// prefetcher runs on the simulation goroutine, so no locking is needed.
type pfTimes struct {
	core, prefetch busy
	pythia         []*core.Pythia
}

// timedPF times every Train and Fill call of the prefetcher it wraps. The
// hierarchy sees prefetchers only through prefetch.Prefetcher, so the
// wrapper forwards every call unchanged and the simulation is identical.
type timedPF struct {
	inner prefetch.Prefetcher
	acc   *busy
}

func (t *timedPF) Name() string { return t.inner.Name() }

func (t *timedPF) Train(a prefetch.Access) []uint64 {
	start := time.Now()
	out := t.inner.Train(a)
	t.acc.ns += int64(time.Since(start))
	t.acc.trains++
	return out
}

func (t *timedPF) Fill(line uint64) {
	start := time.Now()
	t.inner.Fill(line)
	t.acc.ns += int64(time.Since(start))
	t.acc.fills++
}

// timed returns pf with every prefetcher its factories build wrapped in a
// timedPF charging acc. The name is kept, so results are labelled alike.
func timed(pf harness.PF, acc *pfTimes) harness.PF {
	wrap := func(mk func(prefetch.System) prefetch.Prefetcher) func(prefetch.System) prefetch.Prefetcher {
		if mk == nil {
			return nil
		}
		return func(sys prefetch.System) prefetch.Prefetcher {
			p := mk(sys)
			if py, ok := p.(*core.Pythia); ok {
				acc.pythia = append(acc.pythia, py)
				return &timedPF{inner: p, acc: &acc.core}
			}
			return &timedPF{inner: p, acc: &acc.prefetch}
		}
	}
	return harness.PF{Name: pf.Name, L2: wrap(pf.L2), L1: wrap(pf.L1)}
}
